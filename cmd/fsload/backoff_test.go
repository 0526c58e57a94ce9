package main

import (
	"testing"
	"time"
)

func TestBackoffExponentialLadder(t *testing.T) {
	want := []time.Duration{
		5 * time.Millisecond,
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
	}
	for i, w := range want {
		if got := nominal(i + 1); got != w {
			t.Fatalf("attempt %d: %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffCap(t *testing.T) {
	want := []time.Duration{
		160 * time.Millisecond,
		320 * time.Millisecond,
		500 * time.Millisecond, // 640ms capped
		500 * time.Millisecond,
	}
	for i, w := range want {
		if got := nominal(i + 6); got != w {
			t.Fatalf("attempt %d: %v, want %v", i+6, got, w)
		}
	}
}

func TestBackoffDeepAttemptDoesNotOverflow(t *testing.T) {
	if d := nominal(500); d != retryMax {
		t.Fatalf("attempt 500: %v, want the %v cap", d, retryMax)
	}
}

func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	b1, b2, b3 := NewBackoff(42), NewBackoff(42), NewBackoff(43)
	diverged := false
	for n := 1; n <= 50; n++ {
		d1, d2, d3 := b1.Delay(n), b2.Delay(n), b3.Delay(n)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", n, d1, d2)
		}
		if d1 != d3 {
			diverged = true
		}
		lo := time.Duration(float64(nominal(n)) * (1 - retryJitter))
		hi := time.Duration(float64(nominal(n)) * (1 + retryJitter))
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: %v outside [%v, %v]", n, d1, lo, hi)
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter")
	}
}

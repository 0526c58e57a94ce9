package main

import (
	"testing"
	"time"
)

func TestBackoffExponentialLadder(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 0, 0, 0)
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Delay(i + 1); got != w {
			t.Fatalf("attempt %d: %v, want %v", i+1, got, w)
		}
	}
	if got := b.Delay(0); got != 0 {
		t.Fatalf("attempt 0: %v, want 0", got)
	}
}

func TestBackoffCap(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 35*time.Millisecond, 0, 0)
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		35 * time.Millisecond, // 40ms capped
		35 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Delay(i + 1); got != w {
			t.Fatalf("attempt %d: %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffDeepAttemptDoesNotOverflow(t *testing.T) {
	b := NewBackoff(time.Second, 0, 0, 0)
	if d := b.Delay(500); d <= 0 {
		t.Fatalf("attempt 500: %v — overflowed", d)
	}
}

func TestBackoffZeroBase(t *testing.T) {
	b := NewBackoff(0, 0, 0, 0)
	for n := 1; n < 5; n++ {
		if d := b.Delay(n); d != 0 {
			t.Fatalf("zero base attempt %d: %v", n, d)
		}
	}
}

func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	const base, jitter = 100 * time.Millisecond, 0.2
	b1 := NewBackoff(base, 0, jitter, 42)
	b2 := NewBackoff(base, 0, jitter, 42)
	b3 := NewBackoff(base, 0, jitter, 43)
	diverged := false
	for n := 1; n <= 50; n++ {
		nominal := base << uint(n-1)
		if n > 20 {
			nominal = base << 20 // past the ladder walk's safe ceiling region
		}
		d1, d2, d3 := b1.Delay(n), b2.Delay(n), b3.Delay(n)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", n, d1, d2)
		}
		if d1 != d3 {
			diverged = true
		}
		lo := time.Duration(float64(nominal) * (1 - jitter))
		hi := time.Duration(float64(nominal) * (1 + jitter))
		if n <= 10 && (d1 < lo || d1 > hi) {
			t.Fatalf("attempt %d: %v outside [%v, %v]", n, d1, lo, hi)
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestBackoffRejectsBadJitter(t *testing.T) {
	for _, j := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("jitter %v accepted", j)
				}
			}()
			NewBackoff(time.Second, 0, j, 0)
		}()
	}
}

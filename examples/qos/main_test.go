package main

import (
	"bytes"
	"os"
	"testing"
)

// TestDefaultOutput pins the example's whole report, byte for byte. After a
// deliberate behaviour change, regenerate it with
//
//	go run ./examples/qos > examples/qos/testdata/default.golden
func TestDefaultOutput(t *testing.T) {
	var got bytes.Buffer
	report(&got)
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("output diverged from testdata/default.golden.\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}

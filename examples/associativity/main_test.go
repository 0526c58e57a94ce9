package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDefaultOutput pins what the example prints, byte for byte. After a
// deliberate behaviour change, regenerate it with
//
//	go run ./examples/associativity > examples/associativity/testdata/default.golden
func TestDefaultOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full example; skipped under -short")
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()
	os.Stdout = stdout
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("output diverged from testdata/default.golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

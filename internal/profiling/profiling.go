// Package profiling wires the standard -cpuprofile / -memprofile flags into
// the repository's CLIs (fsim, fstables), following the protocol `go test`
// uses: CPU profiling runs for the whole invocation, and the heap profile is
// a single snapshot written at shutdown after a forced GC. The profiles are
// pprof-format; see the README's Profiling section for how to read them.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the registered profiling flag values.
type Flags struct {
	cpu *string
	mem *string

	cpuFile *os.File
}

// Register installs -cpuprofile and -memprofile on fs. Call before
// fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// Start begins CPU profiling when requested. Call after fs.Parse; pair
// with Stop before the process exits.
func (f *Flags) Start() error {
	if *f.cpu == "" {
		return nil
	}
	file, err := os.Create(*f.cpu)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("profiling: %w", err)
	}
	f.cpuFile = file
	return nil
}

// Stop ends CPU profiling and writes the heap profile when requested. It is
// safe to call when no profiling was enabled. Errors are reported on stderr
// rather than returned: a failed profile write should not change the exit
// status of an otherwise successful run.
func (f *Flags) Stop() {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "profiling:", err)
		}
		f.cpuFile = nil
	}
	if *f.mem != "" {
		file, err := os.Create(*f.mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "profiling:", err)
			return
		}
		defer file.Close()
		runtime.GC() // snapshot live objects, not garbage awaiting collection
		if err := pprof.WriteHeapProfile(file); err != nil {
			fmt.Fprintln(os.Stderr, "profiling:", err)
		}
	}
}

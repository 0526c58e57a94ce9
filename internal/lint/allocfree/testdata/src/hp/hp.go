// Package hp exercises allocfree's panic rule.
package hp

import "fmt"

//fs:allocfree
func access(part, parts int) {
	if part < 0 || part >= parts {
		panic(fmt.Sprintf("hp: partition %d out of range", part)) // want `inline fmt.Sprintf inside panic\(\)`
	}
	if parts == 0 {
		panic("hp: " + fmt.Sprint(part)) // want `inline fmt.Sprint inside panic\(\)`
	}
	if part > 1<<20 {
		panic(fmt.Errorf("hp: part %d", part)) // want `inline fmt.Errorf inside panic\(\)`
	}
}

//fs:allocfree
func constantPanic(ok bool) {
	if !ok {
		panic("hp: invariant violated") // clean: no formatting
	}
}

// panicf is a cold helper: formatting here is the sanctioned pattern.
//
//go:noinline
func panicf(format string, args ...any) {
	panic("hp: " + fmt.Sprintf(format, args...))
}

func panicPartRange(part int) {
	panic("hp: " + fmt.Sprintf("partition %d out of range", part))
}

//fs:allocfree
func usesHelpers(part, parts int) {
	if part >= parts {
		panicf("partition %d out of range", part) // clean: call site has no fmt, callee is cold
	}
	if part < 0 {
		panicPartRange(part) // clean: cold *panic* helper
	}
}

func report(n int) string {
	return fmt.Sprintf("n=%d", n) // clean: no //fs:allocfree root reaches it
}

// Package a exercises style's panicstyle rule. The package is named "a",
// so every panic message must start with "a: ".
package a

import (
	"errors"
	"fmt"
)

const prefixed = "a: constant invariant message"

func good(err error, n int) {
	panic("a: plain constant")
	panic(prefixed)
	panic("a: wrapped: " + err.Error())
	panic(fmt.Sprintf("a: value %d out of range", n))
	panic(("a: parenthesized"))
}

func bad(err error, n int) {
	panic("missing prefix")                  // want `panic message "missing prefix" must start with "a: "`
	panic(err)                               // want `panic argument must be a string constant`
	panic(errors.New("a: wrapped in error")) // want `panic argument must be a string constant`
	panic(fmt.Sprintf("value %d", n))        // want `must start with "a: "`
	panic(n)                                 // want `panic argument must be a string constant`
	panic(err.Error() + " a: suffix only")   // want `panic argument must be a string constant`
}

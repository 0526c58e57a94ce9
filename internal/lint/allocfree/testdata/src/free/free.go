// Package free has no //fs:allocfree root, so the panic rule does not apply.
package free

import "fmt"

func anything(n int) {
	if n < 0 {
		panic(fmt.Sprintf("free: bad n %d", n)) // clean: out of scope
	}
}

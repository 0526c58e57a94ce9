// Package main is exempt from style's panicstyle rule: CLIs report
// errors however they like, and "main: " prefixes would be noise.
package main

import "errors"

func run() {
	panic(errors.New("anything goes")) // clean: package main is exempt
}

func main() { run() }

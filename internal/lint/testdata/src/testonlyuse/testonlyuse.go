// Command testonlyuse is the reference half of the testonly fixture: its
// uses keep testonly's exports alive, and as a main package its own
// exports are never reported.
package main

import "bzlint.test/testonly"

func main() {
	var m testonly.Motor
	Run(m)
}

// Run references testonly's exports across the package boundary.
func Run(s testonly.Stepper) int {
	s.Step()
	var b testonly.Box[int]
	return testonly.UsedElsewhere() + b.Get()
}

// Spare is referenced by nothing, but a main package is exempt.
func Spare() {}

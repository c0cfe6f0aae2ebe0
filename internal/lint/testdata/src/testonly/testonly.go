// Package testonly is the testonly-analyzer fixture: exported
// identifiers that nothing outside a test references are reported; ones
// another file or package uses, a generic method reached only through an
// instantiation, interface methods, and waived ones are not. The
// testonlyuse command supplies the cross-package references.
package testonly

import "fmt"

// Unused is referenced by nothing.
func Unused() {} // want `exported function testonly\.Unused has no non-test reference`

// UsedElsewhere is called from testonlyuse.
func UsedElsewhere() int { return 1 }

// UsedInOtherFile is called from other.go in this package.
func UsedInOtherFile() int { return 2 }

// Countdown calls only itself: a recursive call is not a reference.
func Countdown(n int) int { // want `exported function testonly\.Countdown has no non-test reference`
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Limit is an unreferenced constant.
const Limit = 3 // want `exported constant testonly\.Limit has no non-test reference`

// Default is an unreferenced variable.
var Default = 4 // want `exported variable testonly\.Default has no non-test reference`

// Orphan is named only by its own methods' receivers.
type Orphan struct{ n int } // want `exported type testonly\.Orphan has no non-test reference`

// Get is a method nothing calls.
func (o *Orphan) Get() int { return o.n } // want `exported method \(\*testonly\.Orphan\)\.Get has no non-test reference`

// String satisfies fmt.Stringer: fmt calls it through the interface.
func (o *Orphan) String() string { return fmt.Sprint(o.n) }

// Box is a generic type whose method testonlyuse calls only through an
// instantiation.
type Box[T any] struct{ v T }

// Get is reached as Box[int].Get.
func (b *Box[T]) Get() T { return b.v }

// Put has no caller, instantiated or not.
func (b *Box[T]) Put(v T) { b.v = v } // want `exported method \(\*testonly\.Box\[T\]\)\.Put has no non-test reference`

// Stepper is a fixture interface that testonlyuse calls through.
type Stepper interface{ Step() }

// Motor implements Stepper: its Step is exempt, its Halt is not.
type Motor struct{}

// Step is called through Stepper.
func (Motor) Step() {}

// Halt is not in any interface and nothing calls it.
func (Motor) Halt() {} // want `exported method testonly\.Motor\.Halt has no non-test reference`

// Probe is kept for a test in another package.
//
//bzlint:allow testonly testonlyuse.TestProbe reads it
func Probe() int { return 5 }

// Live is referenced, so its waiver suppresses nothing and is stale.
//
//bzlint:allow testonly the test that needed this was deleted
func Live() int { return 6 }

// Package annotfix exercises malformed //gflint:noretain
// declarations; every annotation below is reported under check
// "directive" instead of silently doing nothing.
package annotfix

type base struct{}

// Wrapper puts the annotation on an embedded field, which has no
// explicit name to bind the contract to.
type Wrapper struct {
	//gflint:noretain embedded fields are ambiguous
	base
}

// VoidFunc has no result for a bare annotation to cover.
//
//gflint:noretain
func VoidFunc() {}

// WrongName names a parameter that does not exist.
//
//gflint:noretain nosuchparam
func WrongName(buf []int) []int { return buf }

//gflint:noretain a var declaration is neither a field nor a function
var Floating int

// ReusesTwo names more than the one parameter a reuses helper passes on.
//
//gflint:reuses a b
func ReusesTwo(a, b []int) []int { return a[:0] }

// ReusesWrongType returns something other than the named parameter's
// type.
//
//gflint:reuses buf
func ReusesWrongType(buf []int) int { return len(buf) }

// ReusesWrongName names a parameter that does not exist.
//
//gflint:reuses nosuchparam
func ReusesWrongName(buf []int) []int { return buf[:0] }

//gflint:reuses buf a var declaration is not a function
var FloatingReuse int

// Misspelled carries a misspelled verb, which binds no contract.
type Misspelled struct {
	//gflint:noretian the verb is misspelled
	Buf []int
}

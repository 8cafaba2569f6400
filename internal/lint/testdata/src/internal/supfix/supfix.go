// Package supfix exercises the suppression directive: justified
// directives silence a finding; malformed ones are themselves
// reported under check "directive".
package supfix

import "os"

func SuppressedAbove(name string) {
	//gflint:ignore errdrop fixture demonstrates a justified suppression
	os.Remove(name)
}

func SuppressedSameLine(name string) {
	os.Remove(name) //gflint:ignore errdrop trailing-comment form
}

func MissingReason(name string) {
	//gflint:ignore errdrop
	os.Remove(name)
}

func UnknownCheck(name string) {
	//gflint:ignore nosuchcheck the named check does not exist
	_ = os.Remove(name)
}

//gflint:ignore
func MissingCheckName() {}

func StaleDirective(name string) error {
	//gflint:ignore errdrop nothing below actually drops the error
	return os.Remove(name)
}

func GluedVerb(name string) error {
	//gflint:ignoreorder why: the verb runs into the check's name
	return os.Remove(name)
}

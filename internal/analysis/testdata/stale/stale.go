// Package stale is the fixture of TestStaleDirectives: the analyzer
// "calls" flags every call to flagged, and "elsewhere" runs on no package
// of this name.
package stale

func flagged() {}

func quiet() {}

func f() {
	//continulint:calls live: silences the call below
	flagged()
	//continulint:calls stale: the call below is not flagged
	quiet()
	//continulint:elsewhere filtered: its analyzer skips this package
	quiet()
	//continulint:nosuch unknown: no analyzer has this name
	quiet()
}

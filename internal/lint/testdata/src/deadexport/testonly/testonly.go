// Package testonly is imported only by _test.go files, so its exported
// names are test helpers by construction.
package testonly

func Helper() {}

func Unused() {}

package a

import (
	"testing"

	"deadexport/testonly"
)

func TestA(t *testing.T) {
	TestOnly()
	testonly.Helper()
}

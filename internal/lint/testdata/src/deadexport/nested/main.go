// Command nested is a module nested under the fixture's, like a
// benchmark module: its uses count, but it is not reported on.
package main

import "deadexport/a"

func Unreported() {}

func main() { a.UsedByNested() }

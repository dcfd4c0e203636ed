// Command tool calls package a from another package of the module.
package main

import "deadexport/a"

func main() {
	a.UsedByTool()
	var t a.T
	t.Used()
}

// Command wmlint runs the repo's custom analyzer suite (internal/lint):
// machine-enforced hot-path and correctness invariants — pooled buffers
// are returned, //wm:hotpath functions stay allocation-clean, one-byte
// loads are widened before arithmetic, tsdb corruption is typed, request
// paths honor their context, and shard state stays behind its lock. See
// DESIGN.md §15.
//
// Two modes, one binary:
//
//	wmlint ./...                              # standalone, loads packages itself
//	go vet -vettool=$(which wmlint) ./...     # vet unitchecker protocol
//
// The vet mode implements the cmd/go vettool contract (-flags, -V=full,
// and the single *.cfg argument) without depending on x/tools; it also
// analyzes test files, which the standalone mode skips. Only the
// standalone mode runs deadexport, which needs every package's callers
// at once.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ovhweather/internal/lint"
)

func main() {
	// The vet protocol probes tools with -flags and -V=full before ever
	// passing a config; handle those before flag parsing so unknown
	// future probe flags fail loudly rather than silently.
	args := os.Args[1:]
	if len(args) == 1 {
		switch {
		case args[0] == "-flags":
			// JSON list of tool flags for cmd/go's flag validation.
			fmt.Println(`[]`)
			return
		case strings.HasPrefix(args[0], "-V"):
			lint.PrintVersion()
			return
		case strings.HasSuffix(args[0], ".cfg"):
			lint.UnitcheckerMain(args[0], lint.All())
			return
		}
	}

	var (
		checks = flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
		list   = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wmlint [-checks a,b] packages...\n")
		fmt.Fprintf(os.Stderr, "       go vet -vettool=$(which wmlint) packages...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	analyzers := lint.ByName(*checks)
	if len(analyzers) == 0 {
		fmt.Fprintf(os.Stderr, "wmlint: no analyzers match -checks=%s\n", *checks)
		os.Exit(2)
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wmlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Check(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wmlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(lint.FormatDiagnostic(pkgs[0].Fset, d))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

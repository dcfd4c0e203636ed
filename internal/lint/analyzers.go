package lint

// All returns wmlint's analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFlow,
		DeadExport,
		HotPathAlloc,
		PoolPair,
		Sharded,
		TypedErr,
	}
}

// ByName resolves a comma-separated analyzer list; an empty spec means
// the full suite.
func ByName(spec string) []*Analyzer {
	if spec == "" {
		return All()
	}
	want := map[string]bool{}
	for _, name := range splitComma(spec) {
		want[name] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

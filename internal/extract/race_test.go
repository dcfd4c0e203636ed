//go:build race

package extract

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// values at random, so allocation counts of pooled paths are not stable.
const raceEnabled = true

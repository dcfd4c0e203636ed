// Fixture for wmlint/loadarith. The package is named wmap so that its Load
// stands for the real wmap.Load: a one-byte load percentage.
package wmap

// Load mirrors wmap.Load.
type Load uint8

// Link mirrors the load-carrying fields of wmap.Link.
type Link struct{ LoadAB, LoadBA Load }

func spread(mn, mx Load) int {
	return int(mx - mn) // want "- on wmap.Load wraps"
}

func sum(l Link) int {
	return int(l.LoadAB + l.LoadBA) // want `\+ on wmap.Load wraps`
}

func scaled(l Load) Load {
	return l*2 + 1 // want `\* on wmap.Load` `\+ on wmap.Load`
}

func quotients(a, b Load) (Load, Load, Load) {
	return a / b, a % b, a << 1 // want "/ on wmap.Load" "% on wmap.Load" "<< on wmap.Load"
}

func negated(l Load) Load {
	return -l // want "- on wmap.Load wraps"
}

func stepped(l Link) Link {
	l.LoadAB++           // want `\+\+ on wmap.Load`
	l.LoadBA--           // want "-- on wmap.Load"
	l.LoadAB += 3        // want `\+= on wmap.Load`
	l.LoadBA -= l.LoadAB // want "-= on wmap.Load"
	l.LoadAB *= 2        // want `\*= on wmap.Load`
	l.LoadAB /= 2        // want "/= on wmap.Load"
	l.LoadAB %= 7        // want "%= on wmap.Load"
	l.LoadAB <<= 1       // want "<<= on wmap.Load"
	return l
}

// --- false-positive guards ---------------------------------------------

// widened is the shape the analyzer asks for.
func widened(mn, mx Load, l Link) (int, int) {
	return int(mx) - int(mn), int(l.LoadAB) + int(l.LoadBA)
}

// constant expressions are exempt: the compiler rejects an overflow.
const top = Load(60) + 40

var half = Load(100) / 2

// comparisons, bit operations and right shifts cannot leave [0, 255].
func compared(a, b Load) (bool, Load, Load, Load, Load) {
	return a < b || a == 100, a & b, a | b, a ^ b, a >> 1
}

// assignments and conversions are not arithmetic.
func assigned(l Link, v int) Link {
	l.LoadAB = Load(v)
	l.LoadBA = l.LoadAB
	return l
}

// other byte-wide types are not loads.
type percent uint8

func others(a, b percent, c, d uint8) (percent, uint8) {
	return a + b, c - d
}

package textproc

// String-similarity measures used by entity matching (§6). All measures
// return a score in [0, 1] with 1 meaning identical.

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || a[i] != b[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if a[i] != b[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler boosts the Jaro similarity for strings sharing a common prefix
// (up to 4 chars), the variant standard in record-linkage systems.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	if j < 0.7 {
		return j
	}
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Jaccard returns the Jaccard coefficient |A∩B| / |A∪B| of two token sets.
func Jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Dice returns the Sørensen–Dice coefficient 2|A∩B| / (|A|+|B|).
func Dice(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	den := len(a) + len(b)
	if den == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(den)
}

// TrigramSim is Dice similarity over character trigrams — robust to small
// edits and word-order changes, used for fuzzy name comparison.
func TrigramSim(a, b string) float64 {
	ta := make(map[string]bool)
	for _, g := range CharNGrams(a, 3) {
		ta[g] = true
	}
	tb := make(map[string]bool)
	for _, g := range CharNGrams(b, 3) {
		tb[g] = true
	}
	return Dice(ta, tb)
}

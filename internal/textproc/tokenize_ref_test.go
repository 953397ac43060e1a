package textproc

import (
	"strings"
	"unicode"
)

// tokenizeUnicode is the full rune-by-rune tokenizer that TokenizeInto's
// fallback for input containing any non-ASCII byte used to be, retained
// verbatim as the oracle of the tokenizer. No non-test code calls it.
func tokenizeUnicode(s string, dst []string) []string {
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			dst = append(dst, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'' && b.Len() > 0:
			// skip intra-word apostrophe
		default:
			flush()
		}
	}
	flush()
	return dst
}

// refNormalize is what Normalize was before it became one pass, retained
// verbatim as its oracle.
func refNormalize(s string) string {
	return strings.Join(Tokenize(s), " ")
}

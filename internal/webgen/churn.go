package webgen

import (
	"fmt"
	"regexp"
	"strings"
)

// Page mutations for churn schedules (§7.3 maintenance tests): the ways a
// live page changes between two crawls, applied to rendered HTML. Each is a
// pure function of its input.

// EditText appends a paragraph of text to the page body: a content change
// that leaves the page's template alone.
func EditText(html, text string) string {
	p := "<p>" + text + "</p>"
	if i := strings.LastIndex(html, "</body>"); i >= 0 {
		return html[:i] + p + html[i:]
	}
	return html + p
}

var layoutClass = regexp.MustCompile(`layout-v[0-9]+`)

// Relayout re-renders the page's layout-v<N> wrapper class as variant v: a
// template change that moves every class-path signature under the wrapper,
// so a site-level wrapper learned from the old variant no longer matches.
// Pages without a variant wrapper are returned unchanged.
func Relayout(html string, v int) string {
	return layoutClass.ReplaceAllString(html, fmt.Sprintf("layout-v%d", v))
}

var resultItem = regexp.MustCompile(`(?s)<(li|tr) class="result(-row)?">.*?</(li|tr)>`)

// SingleResult cuts a listing page down to its first result item: the
// "category page listing a single restaurant" that repetition detection
// misses and site-level template propagation recovers. Pages without result
// items are returned unchanged.
func SingleResult(html string) string {
	first := true
	return resultItem.ReplaceAllStringFunc(html, func(item string) string {
		if first {
			first = false
			return item
		}
		return ""
	})
}

var phoneNumber = regexp.MustCompile(`(\(?[0-9]{3}\)?[-. ][0-9]{3}[-. ])[0-9]{4}`)

// EditPhone rewrites the last four digits of the first phone number on the
// page to n: a change to a value the extractors read — on a listing, the
// record of the first restaurant now carries another phone, and with it
// another synthesized ID. Pages without a phone number are returned
// unchanged.
func EditPhone(html string, n int) string {
	loc := phoneNumber.FindStringSubmatchIndex(html)
	if loc == nil {
		return html
	}
	return html[:loc[3]] + fmt.Sprintf("%04d", n%10000) + html[loc[1]:]
}

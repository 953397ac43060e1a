package main

import (
	"bytes"
	"regexp"
	"sort"
	"strings"
	"testing"

	"conceptweb/woc"
)

// openDefaultDir writes seed 1's 50-restaurant default world as `wocbuild
// -out` does and reopens it as wocsearch does.
func openDefaultDir(t *testing.T) *woc.System {
	t.Helper()
	dir := t.TempDir()
	built, err := woc.BuildDir(dir, woc.Manifest{Profile: "default", Seed: 1, Size: 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	sys, err := woc.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// TestPrintsWhatWasAsked: a query that names an attribute prints it, with
// its value, in the box, and an aggregation page prints its attributes in
// key order, the same on every run.
func TestPrintsWhatWasAsked(t *testing.T) {
	sys := openDefaultDir(t)

	page := sys.Search("blue barrel steakhouse menu", 8)
	if page.Box == nil || page.Box.RequestedKey != "menu" || page.Box.RequestedValue == "" {
		t.Fatalf("the query names the menu, the box is %+v", page.Box)
	}
	var out bytes.Buffer
	printPage(&out, page)
	if want := "│  menu: " + page.Box.RequestedValue + "\n"; !strings.Contains(out.String(), want) {
		t.Errorf("the box does not print %q:\n%s", want, out.String())
	}

	agg, err := sys.Aggregate(page.Box.Record.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Attrs) < 3 {
		t.Fatalf("aggregation of %s has %d attributes: too few to show an order", page.Box.Record.ID, len(agg.Attrs))
	}
	var first, second bytes.Buffer
	printAggregation(&first, agg)
	printAggregation(&second, agg)
	if first.String() != second.String() {
		t.Errorf("two prints of one aggregation differ:\n%s\n%s", first.String(), second.String())
	}
	attrs, _, _ := strings.Cut(first.String(), "sources:")
	attrLine := regexp.MustCompile(`(?m)^  (\S+) `)
	var keys []string
	for _, m := range attrLine.FindAllStringSubmatch(attrs, -1) {
		keys = append(keys, m[1])
	}
	if len(keys) != len(agg.Attrs) || !sort.StringsAreSorted(keys) {
		t.Errorf("attributes print as %v, want the %d keys in order", keys, len(agg.Attrs))
	}
}

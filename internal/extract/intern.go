package extract

import (
	"sync"

	"conceptweb/internal/htmlx"
)

// internTable interns strings formed by joining two parts. Hot loops that
// would otherwise concatenate the parts for every DOM node (the
// tag+"."+class child signatures of repeated-structure detection, and the
// class-path steps they stand for) or every candidate (operator-name
// prefixes) get back a canonical shared string, allocation-free after first
// use. The table only grows — the set of
// tag/class pairs and operator names is bounded by the site templates — so
// no eviction is needed.
type internTable struct {
	join func(a, b string) string
	mu   sync.RWMutex
	m    map[string]map[string]string
}

func (t *internTable) get(a, b string) string {
	t.mu.RLock()
	s, ok := t.m[a][b]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]map[string]string)
	}
	inner := t.m[a]
	if inner == nil {
		inner = make(map[string]string)
		t.m[a] = inner
	}
	s, ok = inner[b]
	if !ok {
		s = t.join(a, b)
		inner[b] = s
	}
	return s
}

var (
	sigTable    = internTable{join: func(tag, class string) string { return tag + "." + class }}
	stepTable   = internTable{join: htmlx.ClassPathStep}
	opNameTable = internTable{join: func(prefix, suffix string) string { return prefix + suffix }}
)

// internSig returns the canonical "tag.class" sibling signature.
func internSig(tag, class string) string { return sigTable.get(tag, class) }

// internStep returns the canonical htmlx.ClassPathStep(tag, class).
func internStep(tag, class string) string { return stepTable.get(tag, class) }

// internOpName returns the canonical "prefix+suffix" operator name.
func internOpName(prefix, suffix string) string { return opNameTable.get(prefix, suffix) }

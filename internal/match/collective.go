package match

import (
	"sort"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// Collective matching (§6): rather than deciding pairs independently,
// accepted matches merge evidence and can trigger further matches — the
// "iterative [approach], where matching decisions trigger new matches" of
// Bhattacharya & Getoor. The implementation clusters with union-find and
// re-scores merged cluster representatives until fixpoint.

// unionFind is a standard disjoint-set forest with path compression.
type unionFind struct {
	parent map[string]string
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[string]string)}
}

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		u.parent[x] = x
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

// union merges the sets of a and b; the lexicographically smaller root wins,
// keeping cluster ids deterministic.
func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

// Cluster is one resolved entity: the representative (merged) record and the
// member record IDs.
type Cluster struct {
	Rep     *lrec.Record
	Members []string
}

// CollectiveOptions configures iterative collective matching.
type CollectiveOptions struct {
	// MaxRounds bounds the merge-rescore loop (default 3).
	MaxRounds int
	// Blockers generate candidate pairs each round.
	Blockers []func(*lrec.Record) string
	// MaxBlock caps the block size scored all-pairs (default 256). Larger
	// blocks — the heavy-tail aggregator hosts — switch to a
	// sorted-neighborhood pass: members ordered by normalized name, each
	// compared to its next Window neighbors, so a block of B costs B×Window
	// pairs instead of B². Transitive closure plus rounds of merged-rep
	// re-blocking recover matches farther apart than Window.
	MaxBlock int
	// Window is the sorted-neighborhood comparison distance (default 12).
	Window int
}

// DefaultCollectiveOptions returns the standard configuration.
func DefaultCollectiveOptions() CollectiveOptions {
	return CollectiveOptions{
		MaxRounds: 3,
		Blockers:  []func(*lrec.Record) string{ZipBlock, NameTokenBlock, PhoneBlock},
		MaxBlock:  defaultMaxBlock,
		Window:    defaultWindow,
	}
}

// Cap-or-split defaults; see CollectiveOptions.MaxBlock.
const (
	defaultMaxBlock = 256
	defaultWindow   = 12
)

// neighborSortKey orders members of an oversized block so that likely
// matches are adjacent: the normalized primary name, with the record ID as a
// deterministic tie-break.
func neighborSortKey(r *lrec.Record) string {
	name := r.Get("name")
	if name == "" {
		name = r.Get("title")
	}
	return textproc.Normalize(name)
}

// clusterRep is a current cluster representative and its profile, built the
// first time a block pairs it with anything and dropped with the
// representative.
type clusterRep struct {
	rec  *lrec.Record
	prof *profile
}

func (r *clusterRep) profile(s *scorer) *profile {
	if r.prof == nil {
		r.prof = s.profile(r.rec)
	}
	return r.prof
}

// forEachCandidatePair streams the within-block pairs of every blocker
// partition to visit, one block at a time — no materialized global pair
// slice, no cross-blocker dedup map; the caller's same-root check makes
// duplicate visits free. Blocks at or under maxBlock are scored all-pairs in
// record-ID order (exactly the pairs BlockBy emits); larger blocks get the
// sorted-neighborhood pass. Iteration order is deterministic: blockers in
// argument order, block keys sorted, members sorted.
func forEachCandidatePair(reps []*clusterRep, blockers []func(*lrec.Record) string, maxBlock, window int, visit func(a, b *clusterRep)) {
	blocks := make(map[string][]*clusterRep)
	for _, key := range blockers {
		clear(blocks)
		for _, r := range reps {
			k := key(r.rec)
			if k == "" {
				continue
			}
			blocks[k] = append(blocks[k], r)
		}
		bkeys := make([]string, 0, len(blocks))
		for k := range blocks {
			bkeys = append(bkeys, k)
		}
		sort.Strings(bkeys)
		for _, k := range bkeys {
			members := blocks[k]
			if len(members) <= maxBlock {
				sort.Slice(members, func(i, j int) bool { return members[i].rec.ID < members[j].rec.ID })
				for i := 0; i < len(members); i++ {
					for j := i + 1; j < len(members); j++ {
						visit(members[i], members[j])
					}
				}
				continue
			}
			skeys := make([]string, len(members))
			for i, r := range members {
				skeys[i] = neighborSortKey(r.rec)
			}
			sort.Sort(&neighborOrder{keys: skeys, recs: members})
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members) && j <= i+window; j++ {
					visit(members[i], members[j])
				}
			}
		}
	}
}

// neighborOrder sorts a block's members and their precomputed sort keys
// together: key ascending, then ID ascending.
type neighborOrder struct {
	keys []string
	recs []*clusterRep
}

func (o *neighborOrder) Len() int { return len(o.recs) }
func (o *neighborOrder) Less(i, j int) bool {
	if o.keys[i] != o.keys[j] {
		return o.keys[i] < o.keys[j]
	}
	return o.recs[i].rec.ID < o.recs[j].rec.ID
}
func (o *neighborOrder) Swap(i, j int) {
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
	o.recs[i], o.recs[j] = o.recs[j], o.recs[i]
}

// Resolve clusters records of one concept. Pairwise decisions use m; after
// each round, clusters merge their attribute evidence and the merged
// representatives are re-blocked and re-scored, so a chain like
// "Gochi Fusion Tapas" ← "Gochi" → "Gochi Japanese Restaurant" resolves even
// when the two endpoints would not match directly.
//
// Pairs are streamed block by block (forEachCandidatePair) rather than
// materialized, and between rounds only the representatives of clusters that
// actually merged are rebuilt — untouched clusters keep their record (a
// single-member cluster's representative is the input record itself, never
// cloned). On the heavy-tail block-size distributions of aggregator sites
// this turns the formerly quadratic within-block work into B×Window while
// keeping the fixpoint deterministic at any block layout. Pairs are scored on
// profiles, one per representative, so a representative met in many blocks is
// normalised and tokenised once, and a rebuilt one once more.
func Resolve(records []*lrec.Record, m *Matcher, opts CollectiveOptions) []Cluster {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 3
	}
	if len(opts.Blockers) == 0 {
		opts.Blockers = DefaultCollectiveOptions().Blockers
	}
	if opts.MaxBlock <= 0 {
		opts.MaxBlock = defaultMaxBlock
	}
	if opts.Window <= 0 {
		opts.Window = defaultWindow
	}
	uf := newUnionFind()
	byID := make(map[string]*lrec.Record, len(records))
	for _, r := range records {
		uf.find(r.ID)
		byID[r.ID] = r
	}

	// Current cluster representatives. Input records double as their own
	// initial representatives: blocking and profiling only read them.
	s := m.scorer()
	reps := make([]*clusterRep, len(records))
	for i, r := range records {
		reps[i] = &clusterRep{rec: r}
	}

	for round := 0; round < opts.MaxRounds; round++ {
		dirty := make(map[string]bool)
		forEachCandidatePair(reps, opts.Blockers, opts.MaxBlock, opts.Window, func(a, b *clusterRep) {
			ra, rb := uf.find(a.rec.ID), uf.find(b.rec.ID)
			if ra == rb {
				return
			}
			if s.matches(a.profile(s), b.profile(s)) {
				uf.union(a.rec.ID, b.rec.ID)
				dirty[ra] = true
				dirty[rb] = true
			}
		})
		if len(dirty) == 0 {
			break
		}
		// Rebuild representatives only for clusters whose membership grew
		// this round; unmerged clusters keep their current representative.
		dirtyRoot := make(map[string]bool, len(dirty))
		for r := range dirty {
			dirtyRoot[uf.find(r)] = true
		}
		groups := make(map[string][]*lrec.Record)
		for _, r := range records {
			if root := uf.find(r.ID); dirtyRoot[root] {
				groups[root] = append(groups[root], r)
			}
		}
		kept := reps[:0]
		for _, r := range reps {
			if !dirtyRoot[uf.find(r.rec.ID)] {
				kept = append(kept, r)
			}
		}
		roots := make([]string, 0, len(groups))
		for root := range groups {
			roots = append(roots, root)
		}
		sort.Strings(roots)
		for _, root := range roots {
			merged := lrec.NewRecord(root, groups[root][0].Concept)
			for _, r := range groups[root] {
				merged.Merge(r) //nolint:errcheck // same concept by construction
			}
			kept = append(kept, &clusterRep{rec: merged})
		}
		reps = kept
	}

	// Emit final clusters.
	groups := make(map[string][]string)
	for _, r := range records {
		root := uf.find(r.ID)
		groups[root] = append(groups[root], r.ID)
	}
	roots := make([]string, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	out := make([]Cluster, 0, len(groups))
	for _, root := range roots {
		ids := groups[root]
		sort.Strings(ids)
		rep := lrec.NewRecord(root, byID[ids[0]].Concept)
		for _, id := range ids {
			rep.Merge(byID[id]) //nolint:errcheck // same concept by construction
		}
		out = append(out, Cluster{Rep: rep, Members: ids})
	}
	return out
}

// PairwiseResolve is the non-collective baseline: one blocking pass, one
// scoring pass, transitive closure of accepted matches, no evidence merging.
func PairwiseResolve(records []*lrec.Record, m *Matcher, blockers ...func(*lrec.Record) string) []Cluster {
	if len(blockers) == 0 {
		blockers = DefaultCollectiveOptions().Blockers
	}
	uf := newUnionFind()
	byID := make(map[string]*lrec.Record, len(records))
	for _, r := range records {
		byID[r.ID] = r
		uf.find(r.ID)
	}
	s := m.scorer()
	profs := make(map[string]*profile, len(records))
	for _, r := range records {
		profs[r.ID] = s.profile(r)
	}
	for _, p := range BlockBy(records, blockers...) {
		if s.matches(profs[p.A], profs[p.B]) {
			uf.union(p.A, p.B)
		}
	}
	groups := make(map[string][]string)
	for _, r := range records {
		groups[uf.find(r.ID)] = append(groups[uf.find(r.ID)], r.ID)
	}
	roots := make([]string, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	out := make([]Cluster, 0, len(groups))
	for _, root := range roots {
		ids := groups[root]
		sort.Strings(ids)
		rep := lrec.NewRecord(root, byID[ids[0]].Concept)
		for _, id := range ids {
			rep.Merge(byID[id]) //nolint:errcheck
		}
		out = append(out, Cluster{Rep: rep, Members: ids})
	}
	return out
}

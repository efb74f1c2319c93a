// Package ccprof aggregates decoded calling contexts into profiles —
// the performance-analysis application the paper motivates (§1, citing
// HPCToolkit): hot context ranking, context trees with inclusive and
// exclusive counts, and diffs between two runs. It consumes the samples
// any encoding scheme produces; with DACCE the per-sample cost is a
// capture, not a stack walk.
package ccprof

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dacce/internal/core"
	"dacce/internal/prog"
)

// Profile is an aggregated calling-context profile.
type Profile struct {
	p     *prog.Program
	root  *Node
	total int64
}

// Node is one calling-context-tree node with sample counts.
type Node struct {
	Site prog.SiteID
	Fn   prog.FuncID
	// Exclusive counts samples whose deepest frame is this node;
	// Inclusive counts samples anywhere in this node's subtree.
	Exclusive int64
	Inclusive int64
	Children  []*Node
	Parent    *Node
}

// New returns an empty profile over p.
func New(p *prog.Program) *Profile {
	return &Profile{p: p, root: &Node{Site: prog.NoSite, Fn: p.Entry}}
}

// Add records one decoded context.
func (pr *Profile) Add(ctx core.Context) error { return pr.addN(ctx, 1) }

// addN records a context with weight n — the bulk path folded-stack
// parsing and shard merging use.
func (pr *Profile) addN(ctx core.Context, n int64) error {
	if len(ctx) == 0 {
		return fmt.Errorf("ccprof: empty context")
	}
	pr.total += n
	cur := pr.root
	cur.Inclusive += n
	if ctx[0].Fn != cur.Fn {
		// A different thread root: hang it off a synthetic child so one
		// profile can hold all threads.
		cur = pr.child(cur, prog.NoSite, ctx[0].Fn)
		cur.Inclusive += n
	}
	for _, f := range ctx[1:] {
		cur = pr.child(cur, f.Site, f.Fn)
		cur.Inclusive += n
	}
	cur.Exclusive += n
	return nil
}

func (pr *Profile) child(n *Node, site prog.SiteID, fn prog.FuncID) *Node {
	for _, c := range n.Children {
		if c.Site == site && c.Fn == fn {
			return c
		}
	}
	c := &Node{Site: site, Fn: fn, Parent: n}
	n.Children = append(n.Children, c)
	return c
}

// Total returns the number of contexts added.
func (pr *Profile) Total() int64 { return pr.total }

// Root returns the context tree root.
func (pr *Profile) Root() *Node { return pr.root }

// NumContexts returns the number of distinct contexts (nodes with
// exclusive samples).
func (pr *Profile) NumContexts() int {
	n := 0
	pr.walk(func(nd *Node) {
		if nd.Exclusive > 0 {
			n++
		}
	})
	return n
}

func (pr *Profile) walk(f func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(pr.root)
}

// HotContext is one ranked entry.
type HotContext struct {
	Context core.Context
	Count   int64
	Frac    float64
}

// Hot returns the n hottest contexts by exclusive count.
func (pr *Profile) Hot(n int) []HotContext {
	var nodes []*Node
	pr.walk(func(nd *Node) {
		if nd.Exclusive > 0 {
			nodes = append(nodes, nd)
		}
	})
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Exclusive != nodes[j].Exclusive {
			return nodes[i].Exclusive > nodes[j].Exclusive
		}
		return pathLess(nodes[i], nodes[j])
	})
	if n > len(nodes) {
		n = len(nodes)
	}
	out := make([]HotContext, 0, n)
	for _, nd := range nodes[:n] {
		out = append(out, HotContext{
			Context: pr.pathOf(nd),
			Count:   nd.Exclusive,
			Frac:    float64(nd.Exclusive) / float64(pr.total),
		})
	}
	return out
}

// pathOf reconstructs the context of a node.
func (pr *Profile) pathOf(n *Node) core.Context {
	var rev core.Context
	for ; n != nil; n = n.Parent {
		rev = append(rev, core.ContextFrame{Site: n.Site, Fn: n.Fn})
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func pathLess(a, b *Node) bool {
	// Deterministic tie-break on the path ids.
	pa, pb := a, b
	for pa != nil && pb != nil {
		if pa.Fn != pb.Fn {
			return pa.Fn < pb.Fn
		}
		if pa.Site != pb.Site {
			return pa.Site < pb.Site
		}
		pa, pb = pa.Parent, pb.Parent
	}
	return pa == nil && pb != nil
}

// WriteTree renders the context tree (nodes with at least minFrac of
// inclusive samples) as an indented listing.
func (pr *Profile) WriteTree(w io.Writer, minFrac float64) error {
	var rec func(n *Node, depth int) error
	rec = func(n *Node, depth int) error {
		frac := float64(n.Inclusive) / float64(pr.total)
		if frac < minFrac {
			return nil
		}
		name := "?"
		if int(n.Fn) >= 0 && int(n.Fn) < pr.p.NumFuncs() {
			name = pr.p.Funcs[n.Fn].Name
		}
		if _, err := fmt.Fprintf(w, "%s%-30s %6.2f%% incl  %6.2f%% excl\n",
			strings.Repeat("  ", depth), name,
			100*frac, 100*float64(n.Exclusive)/float64(pr.total)); err != nil {
			return err
		}
		// Children hottest-first, deterministic.
		kids := append([]*Node(nil), n.Children...)
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].Inclusive != kids[j].Inclusive {
				return kids[i].Inclusive > kids[j].Inclusive
			}
			return pathLess(kids[i], kids[j])
		})
		for _, c := range kids {
			if err := rec(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if pr.total == 0 {
		_, err := fmt.Fprintln(w, "(empty profile)")
		return err
	}
	return rec(pr.root, 0)
}

// WriteFile writes the profile to path: folded text when the name ends
// in .folded, gzipped pprof protobuf otherwise.
func (pr *Profile) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".folded") {
		err = pr.WriteFolded(f)
	} else {
		err = pr.WritePprof(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// DiffEntry is one context whose weight changed between two profiles.
type DiffEntry struct {
	Context  core.Context
	FracA    float64
	FracB    float64
	Delta    float64 // FracB - FracA
	AbsDelta float64
}

// Diff compares two profiles over the same program and returns contexts
// ordered by absolute weight change — "what got hot" between two runs
// (regression hunting with calling-context precision).
func Diff(a, b *Profile) []DiffEntry {
	type key string
	weights := func(p *Profile) map[key]*DiffEntry {
		m := make(map[key]*DiffEntry)
		p.walk(func(n *Node) {
			if n.Exclusive == 0 {
				return
			}
			ctx := p.pathOf(n)
			m[key(ctx.String())] = &DiffEntry{
				Context: ctx,
				FracA:   float64(n.Exclusive) / float64(p.total),
			}
		})
		return m
	}
	wa := weights(a)
	wb := weights(b)
	merged := make(map[key]*DiffEntry, len(wa)+len(wb))
	for k, e := range wa {
		merged[k] = &DiffEntry{Context: e.Context, FracA: e.FracA}
	}
	for k, e := range wb {
		if m, ok := merged[k]; ok {
			m.FracB = e.FracA
		} else {
			merged[k] = &DiffEntry{Context: e.Context, FracB: e.FracA}
		}
	}
	out := make([]DiffEntry, 0, len(merged))
	for _, e := range merged {
		e.Delta = e.FracB - e.FracA
		e.AbsDelta = e.Delta
		if e.AbsDelta < 0 {
			e.AbsDelta = -e.AbsDelta
		}
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AbsDelta != out[j].AbsDelta {
			return out[i].AbsDelta > out[j].AbsDelta
		}
		return out[i].Context.String() < out[j].Context.String()
	})
	return out
}

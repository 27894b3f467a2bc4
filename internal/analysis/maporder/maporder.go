// Package maporder bans range statements over maps in simulated-path
// packages, where Go's randomized iteration order can leak into
// simulation state or output and silently break the
// bit-identical-rounds guarantee — a class of bug -race can never see,
// because every interleaving is race-free and "valid".
//
// The rule is a ban, not a proof: every `range` whose operand is a map
// (or a type parameter some map type satisfies) is a finding, whatever
// its body does. Whether a loop's effect is independent of visit order
// is not decidable from its shape — `if v > best { best = v; bestKey = k }`
// looks like a running max and depends on the order whenever two values
// tie; `out[int8(k)] = v` looks keyed by the loop key and is last-writer-
// wins whenever two keys collide — so the analyzer does not guess. Code
// that needs the keys ranges a sorted slice of them; the rare loop that
// really is order-free carries a reasoned directive (the finding's text
// spells it), and the reason is what a reviewer checks.
//
// reflect's MapKeys/MapRange are out of the rule's sight; nothing on the
// simulated path uses reflect.
package maporder

import (
	"go/ast"
	"go/types"

	"continustreaming/internal/analysis"
)

// Analyzer is the maporder pass.
var Analyzer = &analysis.Analyzer{
	Name:   "maporder",
	Doc:    "bans range over a map in simulated-path packages",
	Filter: analysis.SimulatedPath,
	Run:    run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypeOf(rs.X); t != nil && rangesMap(t) {
				pass.Reportf(rs.Pos(),
					"range over map %s: iteration order is nondeterministic and can break bit-identical rounds; range a sorted key slice or annotate //continulint:maporder <reason>",
					types.ExprString(rs.X))
			}
			return true
		})
	}
	return nil
}

// rangesMap reports whether ranging a value of type t can iterate a map:
// t is a map, or a type parameter whose constraint admits one.
func rangesMap(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Interface: // only a type parameter's constraint is rangeable
		for i := 0; i < u.NumEmbeddeds(); i++ {
			e := u.EmbeddedType(i)
			if union, ok := e.(*types.Union); ok {
				for j := 0; j < union.Len(); j++ {
					if rangesMap(union.Term(j).Type()) {
						return true
					}
				}
			} else if rangesMap(e) {
				return true
			}
		}
	}
	return false
}

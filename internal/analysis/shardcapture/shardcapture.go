// Package shardcapture guards the shard-ownership contract of
// sim.ForShards: a shard function runs concurrently with every other
// shard's, so it may mutate only state its shard owns. Writes to
// captured outer variables are legal only through an index chain that
// mentions the shard function's shard argument (the `w.arenas[s]`
// partition idiom); a per-shard result goes to the shard's own slot for
// the caller to fold after the call. The dedicated -race CI job
// exercises this contract only probabilistically — two shards racing on
// a captured counter can pass -race for months — while this analyzer
// sees the capture statically.
//
// Known limitation, by design: mutation behind a method call or a local
// pointer taken from a captured table (n := w.nodes[id]; n.Table.Hear(...))
// is not traced; the convention there is that a shard reaches only the
// nodes whose IDs it owns, which -race plus the worker-count determinism
// suites cover.
package shardcapture

import (
	"go/ast"
	"go/token"
	"go/types"

	"continustreaming/internal/analysis"
)

// Analyzer is the shardcapture pass. It applies everywhere: calling
// sim.ForShards with a leaky shard function is a bug in any package.
var Analyzer = &analysis.Analyzer{
	Name: "shardcapture",
	Doc:  "flags sim.ForShards shard funcs that write captured variables outside their shard",
	Run:  run,
}

// shardFnArg is the position of the shard function in sim.ForShards's
// signature: (pool, shards, fn).
const shardFnArg = 2

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != shardFnArg+1 {
				return true
			}
			if !isForShards(pass, call.Fun) {
				return true
			}
			lit, ok := ast.Unparen(call.Args[shardFnArg]).(*ast.FuncLit)
			if !ok {
				return true // a named function cannot capture locals
			}
			check(pass, lit)
			return true
		})
	}
	return nil
}

// isForShards resolves fn to the ForShards function of the sim package
// (matched by path suffix so the analysistest fixtures' stand-in
// qualifies too).
func isForShards(pass *analysis.Pass, fn ast.Expr) bool {
	var id *ast.Ident
	switch fn := ast.Unparen(fn).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return false
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || obj.Name() != "ForShards" || obj.Pkg() == nil {
		return false
	}
	return analysis.PathHasSuffix(obj.Pkg().Path(), "internal/sim") ||
		obj.Pkg().Path() == "sim"
}

// check walks one shard function literal for writes that escape the shard.
func check(pass *analysis.Pass, lit *ast.FuncLit) {
	var shardObj types.Object
	if params := lit.Type.Params.List; len(params) > 0 && len(params[0].Names) > 0 {
		shardObj = pass.ObjectOf(params[0].Names[0])
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // defines locals
			}
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		default:
			return true
		}
		for _, t := range targets {
			checkTarget(pass, lit, shardObj, t)
		}
		return true
	})
}

// checkTarget peels the write target down to its root identifier,
// remembering whether any index along the chain involves the shard
// argument — the marker of a legally partitioned captured structure.
func checkTarget(pass *analysis.Pass, lit *ast.FuncLit, shardObj types.Object, target ast.Expr) {
	shardIndexed := false
	e := target
loop:
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			if shardObj != nil && mentions(pass, t.Index, shardObj) {
				shardIndexed = true
			}
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			break loop
		}
	}
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return
	}
	// Declared inside the literal (parameters included): shard-local.
	if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
		return
	}
	if shardIndexed {
		return
	}
	pass.Reportf(target.Pos(),
		"sim.ForShards shard func writes captured %q: shard funcs own only their shard — index the write by the shard argument, such as the shard's own slot or arena",
		id.Name)
}

func mentions(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return true
	})
	return found
}

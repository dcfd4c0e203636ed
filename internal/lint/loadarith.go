package lint

import (
	"go/ast"
	"go/token"
)

// LoadArith keeps arithmetic off wmap.Load. A load is one byte (uint8), so
// a sum of three loads, a difference below zero or a negated load wraps
// silently: 100+100+100 reads 44 and 20-30 reads 246. Every sum, delta and
// spread widens each operand first, int(a) - int(b), never int(a - b).
// The analyzer reports the binary operators + - * / % <<, unary minus,
// ++ and -- and the matching op-assignments whenever an operand has type
// Load declared in a package named wmap. Constant expressions are exempt:
// the type checker carries their value, and the compiler already rejects
// one that overflows.
var LoadArith = &Analyzer{
	Name: "loadarith",
	Doc: "forbid + - * / % << -x ++ -- and op-assigns on wmap.Load operands, " +
		"which wrap at 8 bits; widen each operand first",
	Run: runLoadArith,
}

// wrappingOps are the operators whose result can leave [0, 255].
var wrappingOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.SHL: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true, token.REM_ASSIGN: true, token.SHL_ASSIGN: true,
}

func runLoadArith(pass *Pass) error {
	isLoad := func(e ast.Expr) bool {
		tv, ok := pass.TypesInfo.Types[e]
		if !ok || tv.Value != nil {
			return false
		}
		n := namedType(tv.Type)
		if n == nil || n.Obj().Pkg() == nil {
			return false
		}
		return n.Obj().Pkg().Name() == "wmap" && n.Obj().Name() == "Load"
	}
	report := func(pos token.Pos, op token.Token) {
		pass.Reportf(pos, "%s on wmap.Load wraps at 8 bits; widen each operand first: int(a) - int(b), not int(a - b)", op)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if wrappingOps[n.Op] && (isLoad(n.X) || isLoad(n.Y)) {
					report(n.OpPos, n.Op)
				}
			case *ast.UnaryExpr:
				if n.Op == token.SUB && isLoad(n.X) {
					report(n.OpPos, n.Op)
				}
			case *ast.IncDecStmt:
				if isLoad(n.X) {
					report(n.TokPos, n.Tok)
				}
			case *ast.AssignStmt:
				if wrappingOps[n.Tok] && len(n.Lhs) == 1 && isLoad(n.Lhs[0]) {
					report(n.TokPos, n.Tok)
				}
			}
			return true
		})
	}
	return nil
}

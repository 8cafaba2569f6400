package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockHoldAnalyzer flags blocking channel operations — sends,
// receives, selects without a default, ranges over channels — executed
// while a sync mutex is held. A goroutine parked on a channel keeps
// the lock, so every other goroutine needing it parks too; with the
// channel's peer among them, that is a deadlock. The scan is a linear,
// intra-procedural walk per function: X.Lock()/X.RLock() marks X held,
// X.Unlock()/X.RUnlock() releases, defer X.Unlock() keeps X held to
// the end of the function (which is precisely why a blocking op after
// it is flagged). Function literals start with no locks held.
var LockHoldAnalyzer = &Analyzer{
	Name: "lockhold",
	Doc:  "blocking channel operations (send, receive, empty-default select, channel range) while a sync lock is held",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				scanLockHold(pass, body, make(map[string]token.Pos))
			}
			return true
		})
	}
}

// scanLockHold walks one block linearly, tracking held locks by the
// printed form of their receiver expression. Branch bodies get cloned
// sets (a lock taken in one arm is not held after the branch; a lock
// released in one arm is conservatively still held after — early
// returns make that the common safe pattern).
func scanLockHold(pass *Pass, block *ast.BlockStmt, held map[string]token.Pos) {
	for _, stmt := range block.List {
		lockHoldStmt(pass, stmt, held)
	}
}

func lockHoldStmt(pass *Pass, stmt ast.Stmt, held map[string]token.Pos) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if target, op, ok := lockCall(pass, s.X); ok {
			switch op {
			case "Lock", "RLock":
				if _, already := held[target]; !already {
					held[target] = s.Pos()
				}
			case "Unlock", "RUnlock":
				delete(held, target)
			}
			return
		}
		reportBlockingExprs(pass, s.X, held)
	case *ast.DeferStmt:
		// defer X.Unlock() means X stays held for the REST of the
		// function — that is the point of tracking it. Other deferred
		// calls run at exit; their receives are out of scope here.
	case *ast.SendStmt:
		reportHeld(pass, s.Arrow, "channel send", held)
		reportBlockingExprs(pass, s.Value, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			reportBlockingExprs(pass, r, held)
		}
	case *ast.DeclStmt:
		reportBlockingExprs(pass, s.Decl, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			reportBlockingExprs(pass, r, held)
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			reportBlockingExprs(pass, a, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			lockHoldStmt(pass, s.Init, held)
		}
		reportBlockingExprs(pass, s.Cond, held)
		scanLockHold(pass, s.Body, cloneHeld(held))
		if s.Else != nil {
			lockHoldStmt(pass, s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lockHoldStmt(pass, s.Init, held)
		}
		if s.Cond != nil {
			reportBlockingExprs(pass, s.Cond, held)
		}
		scanLockHold(pass, s.Body, cloneHeld(held))
	case *ast.RangeStmt:
		if _, isChan := typeUnder(pass.TypeOf(s.X)).(*types.Chan); isChan {
			reportHeld(pass, s.Pos(), "range over a channel", held)
		}
		scanLockHold(pass, s.Body, cloneHeld(held))
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			reportHeld(pass, s.Pos(), "select with no default case", held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := cloneHeld(held)
				for _, st := range cc.Body {
					lockHoldStmt(pass, st, branch)
				}
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			lockHoldStmt(pass, s.Init, held)
		}
		if s.Tag != nil {
			reportBlockingExprs(pass, s.Tag, held)
		}
		lockHoldCases(pass, s.Body, held)
	case *ast.TypeSwitchStmt:
		lockHoldCases(pass, s.Body, held)
	case *ast.BlockStmt:
		scanLockHold(pass, s, held)
	case *ast.LabeledStmt:
		lockHoldStmt(pass, s.Stmt, held)
	}
}

func lockHoldCases(pass *Pass, body *ast.BlockStmt, held map[string]token.Pos) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			branch := cloneHeld(held)
			for _, st := range cc.Body {
				lockHoldStmt(pass, st, branch)
			}
		}
	}
}

func cloneHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// lockCall resolves X.Lock / X.RLock / X.Unlock / X.RUnlock calls on
// sync types to (printed receiver, method).
func lockCall(pass *Pass, e ast.Expr) (target, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}

// reportBlockingExprs flags channel receives (<-ch) inside an
// expression evaluated while locks are held. Function literals are
// skipped: their bodies run later, with their own lock discipline.
func reportBlockingExprs(pass *Pass, n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			reportHeld(pass, u.Pos(), "channel receive", held)
		}
		return true
	})
}

// reportHeld emits one finding per blocking operation, naming every
// held lock (sorted for stable output) with its acquisition site.
func reportHeld(pass *Pass, pos token.Pos, what string, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	names := make([]string, 0, len(held))
	for name := range held {
		names = append(names, name)
	}
	sort.Strings(names)
	related := make([]Related, 0, len(names))
	for _, name := range names {
		related = append(related, pass.Note(held[name], "%s acquired here", name))
	}
	list := names[0]
	for _, n := range names[1:] {
		list += ", " + n
	}
	pass.ReportRelated(pos, related,
		"%s while holding %s; a parked goroutine keeps the lock and can deadlock its peer — release before blocking",
		what, list)
}

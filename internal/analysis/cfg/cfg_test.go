package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// liveStmts returns every leaf statement in a block reachable from the entry.
func liveStmts(g *Graph) map[ast.Stmt]bool {
	out := map[ast.Stmt]bool{}
	for blk := range g.Live() {
		for _, s := range blk.Stmts {
			out[s] = true
		}
	}
	return out
}

// liveAssignments parses src as a function body, builds the CFG and returns
// the set of variables assigned in live leaf statements — a compact way to
// assert which writes survive flow analysis.
func liveAssignments(t *testing.T, body string) map[string]bool {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := f.Decls[0].(*ast.FuncDecl)
	g := New(fn.Body)
	out := map[string]bool{}
	for s := range liveStmts(g) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
	}
	return out
}

func expectLive(t *testing.T, body string, live, dead []string) {
	t.Helper()
	got := liveAssignments(t, body)
	for _, name := range live {
		if !got[name] {
			t.Errorf("%q should be live in:\n%s", name, body)
		}
	}
	for _, name := range dead {
		if got[name] {
			t.Errorf("%q should be dead in:\n%s", name, body)
		}
	}
}

func TestStraightLine(t *testing.T) {
	expectLive(t, `a := 1; b := a`, []string{"a", "b"}, nil)
}

func TestDeadAfterReturn(t *testing.T) {
	expectLive(t, `
		a := 1
		return
		b := 2 //nolint
	`, []string{"a"}, []string{"b"})
}

func TestDeadAfterPanic(t *testing.T) {
	expectLive(t, `
		a := 1
		panic("boom")
		b := 2
	`, []string{"a"}, []string{"b"})
}

func TestIfBothBranchesLive(t *testing.T) {
	expectLive(t, `
		if cond() {
			a := 1
			_ = a
		} else {
			b := 2
			_ = b
		}
		c := 3
		_ = c
	`, []string{"a", "b", "c"}, nil)
}

func TestIfBothReturnKillsFollow(t *testing.T) {
	expectLive(t, `
		if cond() {
			return
		} else {
			return
		}
		d := 4
	`, nil, []string{"d"})
}

func TestIfWithoutElseFollowLive(t *testing.T) {
	expectLive(t, `
		if cond() {
			return
		}
		d := 4
	`, []string{"d"}, nil)
}

func TestIfInitIsLive(t *testing.T) {
	expectLive(t, `
		if x := 1; x > 0 {
		}
	`, []string{"x"}, nil)
}

func TestForBodyAndPost(t *testing.T) {
	expectLive(t, `
		for i := 0; i < 3; i++ {
			a := i
			_ = a
		}
		b := 1
	`, []string{"i", "a", "b"}, nil)
}

func TestInfiniteLoopKillsFollow(t *testing.T) {
	expectLive(t, `
		for {
			a := 1
			_ = a
		}
		b := 2
	`, []string{"a"}, []string{"b"})
}

func TestInfiniteLoopWithBreakKeepsFollow(t *testing.T) {
	expectLive(t, `
		for {
			if cond() {
				break
			}
		}
		b := 2
	`, []string{"b"}, nil)
}

func TestContinueSkipsRest(t *testing.T) {
	// The statement after an unconditional continue is dead.
	expectLive(t, `
		for i := 0; i < 3; i++ {
			continue
			a := 1
		}
	`, []string{"i"}, []string{"a"})
}

func TestRangeLoop(t *testing.T) {
	expectLive(t, `
		for _, v := range xs() {
			a := v
			_ = a
		}
		b := 1
	`, []string{"a", "b"}, nil)
}

func TestSwitchClausesAndFallthrough(t *testing.T) {
	expectLive(t, `
		switch n() {
		case 1:
			a := 1
			_ = a
			fallthrough
		case 2:
			b := 2
			_ = b
		}
		c := 3
	`, []string{"a", "b", "c"}, nil)
}

func TestSwitchAllReturnWithDefaultKillsFollow(t *testing.T) {
	expectLive(t, `
		switch n() {
		case 1:
			return
		default:
			return
		}
		c := 3
	`, nil, []string{"c"})
}

func TestSwitchWithoutDefaultFollowLive(t *testing.T) {
	expectLive(t, `
		switch n() {
		case 1:
			return
		}
		c := 3
	`, []string{"c"}, nil)
}

func TestTypeSwitch(t *testing.T) {
	expectLive(t, `
		switch x := v().(type) {
		case int:
			a := x
			_ = a
		}
		b := 1
	`, []string{"x", "a", "b"}, nil)
}

func TestSelectBlockingWithoutDefault(t *testing.T) {
	// Both comm clauses return; no default; the follow is dead.
	expectLive(t, `
		select {
		case <-ch():
			return
		case <-ch():
			return
		}
		a := 1
	`, nil, []string{"a"})
}

func TestSelectWithDefault(t *testing.T) {
	expectLive(t, `
		select {
		case <-ch():
			return
		default:
		}
		a := 1
	`, []string{"a"}, nil)
}

func TestGotoForward(t *testing.T) {
	expectLive(t, `
		goto done
		a := 1
	done:
		b := 2
	`, []string{"b"}, []string{"a"})
}

func TestGotoBackward(t *testing.T) {
	expectLive(t, `
	again:
		a := 1
		_ = a
		if cond() {
			goto again
		}
		b := 2
	`, []string{"a", "b"}, nil)
}

func TestLabeledBreak(t *testing.T) {
	expectLive(t, `
	outer:
		for {
			for {
				break outer
			}
		}
		a := 1
	`, []string{"a"}, nil)
}

func TestLabeledContinue(t *testing.T) {
	expectLive(t, `
	outer:
		for i := 0; i < 2; i++ {
			for {
				continue outer
			}
			a := 1
		}
		b := 2
	`, []string{"i", "b"}, []string{"a"})
}

func TestNilBody(t *testing.T) {
	g := New(nil)
	if g.Entry == nil || len(g.Blocks) != 1 {
		t.Fatalf("nil body: entry=%v blocks=%d", g.Entry, len(g.Blocks))
	}
	if n := len(liveStmts(g)); n != 0 {
		t.Errorf("nil body has %d live statements", n)
	}
}

// TestEveryLeafInExactlyOneBlock guards the decomposition invariant the
// isolation analyzer depends on: walking blocks visits each simple statement
// once.
func TestEveryLeafInExactlyOneBlock(t *testing.T) {
	src := `
		a := 1
		for i := 0; i < 3; i++ {
			if cond() {
				a += i
				continue
			}
			switch n() {
			case 1:
				a--
			default:
				a++
			}
		}
		return
	`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", "package p\nfunc f() {\n"+src+"\n}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	g := New(f.Decls[0].(*ast.FuncDecl).Body)
	seen := map[ast.Stmt]int{}
	for _, blk := range g.Blocks {
		for _, s := range blk.Stmts {
			seen[s]++
		}
	}
	for s, n := range seen {
		if n != 1 {
			t.Errorf("statement at %s appears in %d blocks", fset.Position(s.Pos()), n)
		}
	}
	var want int
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.AssignStmt, *ast.IncDecStmt, *ast.ReturnStmt, *ast.BranchStmt, *ast.ExprStmt:
			want++
		}
		return true
	})
	if len(seen) != want {
		var got []string
		for s := range seen {
			got = append(got, fmt.Sprintf("%T@%s", s, fset.Position(s.Pos())))
		}
		t.Errorf("blocks hold %d leaves, source has %d simple statements:\n%s",
			len(seen), want, strings.Join(got, "\n"))
	}
}

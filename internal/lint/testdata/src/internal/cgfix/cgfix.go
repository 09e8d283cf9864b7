// Package cgfix is the call-graph unit-test fixture: interface
// dispatch, mutual recursion and func-value conservatism, each in its
// smallest form.
package cgfix

type ringer interface{ Ring() int }

type bell struct{}

func (b bell) Ring() int { return 1 }

type gong struct{}

func (g *gong) Ring() int { return len(make([]byte, 8)) }

// Chime dispatches through the interface: class-hierarchy analysis
// adds an edge to every implementation in the run.
func Chime(r ringer) int { return r.Ring() }

// Even and Odd recurse mutually; both must inherit Odd's allocation
// through the fixpoint.
func Even(n int) int {
	if n == 0 {
		return 0
	}
	return Odd(n - 1)
}

func Odd(n int) int {
	if n == 0 {
		return len(make([]byte, 1))
	}
	return Even(n - 1)
}

// Indirect calls through a func value: the callee is unknowable, so
// the summary must stay conservative.
func Indirect(f func() int) int { return f() }

// Clean is allocation-free through and through.
func Clean(x int) int { return x + 1 }

// Parks blocks on a bare channel receive.
func Parks(ch chan int) int { return <-ch }

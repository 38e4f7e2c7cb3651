// Package fixture plants one case of each census verdict for
// TestCensusRules.
package fixture

// Shape is an interface in use; Square.Area satisfies it, which no
// reference records.
type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Unused is an exported function nothing calls: a finding.
func Unused() {}

// Used is called by total.
func Used() int { return 1 }

type record struct {
	read   int
	unread int // written, never read: a finding
	Tagged int `json:"tagged"`
}

// key's fields are only written, but hashing a map key reads them.
type key struct{ a, b int }

// pair's field is only written, but == reads it.
type pair struct{ x int }

var index = map[key]bool{}

func total(shapes []Shape) int {
	r := record{read: 1, unread: 2}
	r.unread++
	n := r.read + Used()
	for _, s := range shapes {
		n += s.Area()
	}
	index[key{a: 1, b: 2}] = true
	if (pair{x: n}) == (pair{1}) {
		n++
	}
	return n
}

func init() { total([]Shape{Square{Side: 2}}) }

package fault

// BadSectorList returns the permanent bad sectors in ascending order.
func (p *Plan) BadSectorList() []int64 {
	out := make([]int64, 0, len(p.bad))
	for s := range p.bad {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

package matching

// Hungarian solves the maximum-weight assignment problem exactly on a dense
// n1 × n2 matrix w of non-negative weights, stored row-major (entry (i, j)
// at w[i*n2+j]); n1 ≤ n2 is not required (the larger side is left partly
// unmatched). It returns assign, where assign[i] is the column matched to
// row i (or -1 when the row is left unmatched because n1 > n2), and the
// total weight. The workspace, and assign itself, live in s: assign is
// valid until the next call on s, and a warmed-up s makes the call
// allocation-free.
//
// The implementation is the O(n³) potentials ("Jonker-Volgenant style")
// formulation of the Kuhn-Munkres algorithm, minimizing the negated
// weights.
func Hungarian(w []float64, n1, n2 int, s *Scratch) ([]int, float64) {
	assign := growInts(&s.assign, n1)
	for i := range assign {
		assign[i] = -1
	}
	if n1 == 0 || n2 == 0 {
		return assign, 0
	}
	// Run over the rows ≤ cols view: entry (i, j) of the view lives at
	// w[i*rs+j*cs], so a tall matrix is transposed by strides, not copied.
	rs, cs := n2, 1
	transposed := n1 > n2
	if transposed {
		n1, n2 = n2, n1
		rs, cs = 1, n1
	}

	// cost(i, j) = -w(i, j); minimize.
	const inf = 1e18
	u := growFloats(&s.hu, n1+1)
	v := growFloats(&s.hv, n2+1)
	p := growInts(&s.hp, n2+1) // p[j] = row assigned to column j (1-based; 0 = none)
	way := growInts(&s.way, n2+1)
	minv := growFloats(&s.minv, n2+1)
	if cap(s.used) < n2+1 {
		s.used = make([]bool, n2+1)
	}
	used := s.used[:n2+1]
	clear(u)
	clear(v)
	clear(p)

	for i := 1; i <= n1; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n2; j++ {
				if used[j] {
					continue
				}
				cur := -w[(i0-1)*rs+(j-1)*cs] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n2; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	total := 0.0
	for j := 1; j <= n2; j++ {
		if p[j] != 0 {
			if transposed {
				assign[j-1] = p[j] - 1 // view columns are the original rows
			} else {
				assign[p[j]-1] = j - 1
			}
			total += w[(p[j]-1)*rs+(j-1)*cs]
		}
	}
	return assign, total
}

// growFloats returns (*b)[:n], reallocating when the capacity is short.
func growFloats(b *[]float64, n int) []float64 {
	if cap(*b) < n {
		*b = make([]float64, n)
	}
	return (*b)[:n]
}

// growInts returns (*b)[:n], reallocating when the capacity is short.
func growInts(b *[]int, n int) []int {
	if cap(*b) < n {
		*b = make([]int, n)
	}
	return (*b)[:n]
}

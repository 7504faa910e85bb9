package cgraph

import (
	"crypto/sha256"
	"fmt"
)

// Node is one placed operation in a graph.
type Node struct {
	ID       int
	Name     string
	Op       Op
	Inputs   []*Node
	OutShape Shape
}

// Graph is a computational graph under construction; nodes are appended in
// topological order by design (inputs must already exist).
type Graph struct {
	Name  string
	nodes []*Node
	byID  map[int]*Node
	users map[int]int // node ID → consumer count
}

// New returns an empty named graph.
func New(name string) *Graph {
	return &Graph{Name: name, byID: make(map[int]*Node), users: make(map[int]int)}
}

// Add appends an operation consuming the given input nodes, inferring its
// output shape.
func (g *Graph) Add(name string, op Op, inputs ...*Node) (*Node, error) {
	shapes := make([]Shape, len(inputs))
	for i, n := range inputs {
		if n == nil {
			return nil, fmt.Errorf("cgraph: %s: nil input %d", name, i)
		}
		if g.byID[n.ID] != n {
			return nil, fmt.Errorf("cgraph: %s: input %q not in graph", name, n.Name)
		}
		shapes[i] = n.OutShape
	}
	out, err := op.InferShape(shapes)
	if err != nil {
		return nil, fmt.Errorf("cgraph: %s: %w", name, err)
	}
	node := &Node{
		ID:       len(g.nodes),
		Name:     name,
		Op:       op,
		Inputs:   append([]*Node(nil), inputs...),
		OutShape: out,
	}
	g.nodes = append(g.nodes, node)
	g.byID[node.ID] = node
	for _, in := range inputs {
		g.users[in.ID]++
	}
	return node, nil
}

// MustAdd is Add that panics on error, for static model builders whose
// shapes are fixed by construction.
func (g *Graph) MustAdd(name string, op Op, inputs ...*Node) *Node {
	n, err := g.Add(name, op, inputs...)
	if err != nil {
		panic(err)
	}
	return n
}

// Input adds a graph source.
func (g *Graph) Input(name string, shape Shape) (*Node, error) {
	return g.Add(name, Input{Shape: shape})
}

// Nodes returns the nodes in topological order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Outputs returns the nodes no other node consumes.
func (g *Graph) Outputs() []*Node {
	var outs []*Node
	for _, n := range g.nodes {
		if g.users[n.ID] == 0 {
			outs = append(outs, n)
		}
	}
	return outs
}

// inputShapes gathers a node's operand shapes.
func inputShapes(n *Node) []Shape {
	shapes := make([]Shape, len(n.Inputs))
	for i, in := range n.Inputs {
		shapes[i] = in.OutShape
	}
	return shapes
}

// NodeWeights returns the parameter count of one node.
func NodeWeights(n *Node) int64 { return n.Op.Weights(inputShapes(n)) }

// NodeMACs returns the MAC count of one node.
func NodeMACs(n *Node) int64 { return n.Op.MACs(inputShapes(n), n.OutShape) }

// TotalWeights returns the graph's parameter count (Table 3 "# of
// weights").
func (g *Graph) TotalWeights() int64 {
	var total int64
	for _, n := range g.nodes {
		total += NodeWeights(n)
	}
	return total
}

// TotalOps returns 2×MACs over the whole graph (Table 3 "# of ops").
func (g *Graph) TotalOps() int64 {
	var total int64
	for _, n := range g.nodes {
		total += 2 * NodeMACs(n)
	}
	return total
}

// Validate re-checks every node's shape inference against its stored
// output shape, catching graphs mutated after construction.
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		out, err := n.Op.InferShape(inputShapes(n))
		if err != nil {
			return fmt.Errorf("cgraph: node %q: %w", n.Name, err)
		}
		if out != n.OutShape {
			return fmt.Errorf("cgraph: node %q: stored shape %v, inferred %v", n.Name, n.OutShape, out)
		}
		for _, in := range n.Inputs {
			if in.ID >= n.ID {
				return fmt.Errorf("cgraph: node %q consumes later node %q (not topological)", n.Name, in.Name)
			}
		}
	}
	return nil
}

// Fingerprint returns a SHA-256 digest of the graph's full structure —
// its name, every node's name, operation (concrete type and parameters),
// output shape, and input wiring — so two graphs digest equal exactly
// when the compiler would treat them identically. The deployment cache
// uses it as the model half of its content address.
func (g *Graph) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "graph %q %d\n", g.Name, len(g.nodes))
	for _, n := range g.nodes {
		fmt.Fprintf(h, "node %d %q %s %#v %v [", n.ID, n.Name, n.Op.Kind(), n.Op, n.OutShape)
		for _, in := range n.Inputs {
			fmt.Fprintf(h, "%d ", in.ID)
		}
		fmt.Fprint(h, "]\n")
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// Stats summarizes a graph for reports.
type Stats struct {
	Nodes   int
	Weights int64
	Ops     int64
}

// Summary returns the graph's headline statistics.
func (g *Graph) Summary() Stats {
	return Stats{Nodes: len(g.nodes), Weights: g.TotalWeights(), Ops: g.TotalOps()}
}

package nn

import "fmt"

// CloneWeights returns deep copies of the network's parameter values, used
// by the rejuvenation mechanism as the "safe memory location" a module is
// reloaded from (paper §IV) and by the fault injector to restore a healthy
// state.
func (n *Network) CloneWeights() [][]float32 {
	params := n.Params()
	out := make([][]float32, 0, len(params))
	for _, p := range params {
		c := make([]float32, p.Len())
		copy(c, p.Data)
		out = append(out, c)
	}
	return out
}

// RestoreWeights copies previously cloned weights back into the network.
func (n *Network) RestoreWeights(saved [][]float32) error {
	params := n.Params()
	if len(saved) != len(params) {
		return fmt.Errorf("nn: %d saved tensors, network %s has %d", len(saved), n.Name, len(params))
	}
	for i, p := range params {
		if len(saved[i]) != p.Len() {
			return fmt.Errorf("nn: saved tensor %d size %d, want %d", i, len(saved[i]), p.Len())
		}
		copy(p.Data, saved[i])
	}
	return nil
}

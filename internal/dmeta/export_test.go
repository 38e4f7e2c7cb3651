package dmeta

// PartInfo is the exported view of one partition map entry.
type PartInfo struct {
	Start, End uint64
	Node       int
}

// Parts returns a copy of the partition map in key order.
func (c *Cluster) Parts() []PartInfo {
	out := make([]PartInfo, len(c.parts))
	for i, pt := range c.parts {
		out[i] = PartInfo{Start: pt.start, End: pt.end, Node: pt.node}
	}
	return out
}

// Images returns an independent media snapshot per node (quiescent
// cluster assumed; use Crash for failure snapshots).
func (c *Cluster) Images() [][]byte {
	imgs := make([][]byte, len(c.nodes))
	for i, n := range c.nodes {
		imgs[i] = n.St.Disk.CloneImage()
	}
	return imgs
}

package engine

// PlaneWorkers returns the live-worker list of every loop in a
// cluster's control plane: the master's alone when unsharded, else the
// frontend router's followed by each shard part's in shard order. Read
// it only at quiescence, after Wait returned.
func PlaneWorkers(c *Cluster) [][]string {
	sm, ok := c.plane.(*ShardedMaster)
	if !ok {
		return [][]string{c.master.Workers()}
	}
	lists := [][]string{append([]string(nil), sm.fleet.workers...)}
	for _, p := range sm.parts {
		lists = append(lists, p.Workers())
	}
	return lists
}

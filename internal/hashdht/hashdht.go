// Package hashdht implements the scalability extension sketched in
// Section 1.3 of the paper: "better scalability can be achieved … by having
// different supervisors for each topic. For the latter scenario, one could
// make use of a … distributed hash table (with consistent hashing) for all
// supervisors, in which a sub-interval of [0,1) is assigned to each
// supervisor. By hashing IDs of topics in the same manner, each supervisor
// is then only responsible for the topics in its sub-interval."
//
// Ring holds the supervisor set under consistent hashing with virtual
// points; Owner routes a topic to its responsible supervisor, recomputed
// from the ring on every call, so there is no placement cache to go stale
// when supervisors join or leave. The self-stabilizing DHT the paper
// defers to the literature ([11]) is out of scope; this is the static
// consistent-hashing layer the sketch requires.
package hashdht

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"sspubsub/internal/sim"
)

// hashPoint maps a string to a point in [0, 2^64) ≅ [0, 1).
func hashPoint(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// topicPoint is a topic's position on the ring: the hash of its placement
// key "topic-t/<id>". The key is derived from the numeric wire ID (never
// the human name): frames carry only the ID, so it is the one identity
// every process of a networked deployment agrees on without coordination.
func topicPoint(t sim.Topic) uint64 {
	return hashPoint("topic-t/" + strconv.FormatInt(int64(t), 10))
}

// Ring is a consistent-hashing ring of supervisors. The zero value is
// unusable; use NewRing. All methods are safe for concurrent use.
type Ring struct {
	mu      sync.RWMutex
	points  []point // sorted by position
	members map[sim.NodeID]bool
}

// virtualPoints is how many points each supervisor places on the ring:
// enough that the intervals are smooth (a dozen supervisors own within a
// few percent of their share of the keys). It is part of the placement
// function, so every ring in a deployment uses the same value.
const virtualPoints = 64

type point struct {
	pos uint64
	id  sim.NodeID
}

// NewRing creates an empty ring.
func NewRing() *Ring { return &Ring{members: make(map[sim.NodeID]bool)} }

// Add inserts a supervisor. Adding an existing member is a no-op.
func (r *Ring) Add(id sim.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[id] {
		return
	}
	r.members[id] = true
	for v := 0; v < virtualPoints; v++ {
		r.points = append(r.points, point{hashPoint(fmt.Sprintf("sup-%d-%d", id, v)), id})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
}

// Remove deletes a supervisor (e.g. decommissioned); topics it owned move
// to the circular successors of its points.
func (r *Ring) Remove(id sim.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the supervisor set, sorted.
func (r *Ring) Members() []sim.NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]sim.NodeID, 0, len(r.members))
	for id := range r.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Owner returns the supervisor responsible for a topic: the circular
// successor of the topic's hash point. ok is false for an empty ring.
func (r *Ring) Owner(topic sim.Topic) (sim.NodeID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return sim.None, false
	}
	h := topicPoint(topic)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	return r.points[i%len(r.points)].id, true
}

// Successors returns up to k distinct supervisors after the topic's owner
// in ring order, owner excluded — the replica set of the warm-failover
// replication layer. When the owner's points are removed from the ring, its
// first successor becomes the topic's new owner, so replicating to the
// successors places the warm state exactly where an adoption will look for
// it. Fewer than k members besides the owner yields a shorter slice.
func (r *Ring) Successors(topic sim.Topic, k int) []sim.NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if k <= 0 || len(r.points) == 0 {
		return nil
	}
	h := topicPoint(topic)
	base := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h }) % len(r.points)
	owner := r.points[base].id
	seen := map[sim.NodeID]bool{owner: true}
	var out []sim.NodeID
	for j := 1; j <= len(r.points) && len(out) < k; j++ {
		id := r.points[(base+j)%len(r.points)].id
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

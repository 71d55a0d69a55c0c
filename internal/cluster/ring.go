// Package cluster scales the sharded recognition engine across nodes:
// a coordinator places stream IDs on nodes via consistent hashing
// (virtual nodes for balance), tracks membership through heartbeats
// with deadline-based failure detection, and makes stream migration a
// first-class, fault-tolerant operation. On node kill, drain, or
// join/leave rebalance, a stream's calibration checkpoint + frame
// cursor is handed to the new owner over a retrying, deadline-bounded
// transfer, and the new owner resumes via the recognizer's SkipTo with
// no recalibration. A handoff that exceeds its deadline falls back to
// live calibration instead of wedging the stream.
//
// Every "node" here is an in-process engine plus a real TCP handoff
// listener, so the whole coordination layer — including the transfer
// wire path — is drivable from sim tests, with faultnet injecting
// partitions, delays, and drops on the handoff links.
package cluster

import (
	"fmt"
	"sort"
)

// NodeID names one cluster member.
type NodeID string

// hash64 is FNV-1a over a string with a murmur-style avalanche
// finalizer, allocation-free. Raw FNV clusters badly on the short,
// similar strings vnode labels are ("node-0#17"), which skews ring
// balance; the finalizer spreads those low-entropy differences across
// all 64 bits.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node NodeID
}

// Ring is a consistent-hash ring with virtual nodes: each member
// contributes vnodes points, so stream placement stays balanced even
// with a handful of physical nodes, and adding or removing one member
// moves only ~1/N of the streams. Not safe for concurrent use — the
// coordinator serializes access under its own lock.
type Ring struct {
	vnodes int
	nodes  map[NodeID]struct{}
	points []ringPoint // sorted by hash
}

// NewRing builds an empty ring with the given virtual-node count per
// member (<=0 selects 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, nodes: map[NodeID]struct{}{}}
}

// Add inserts a member (idempotent).
func (r *Ring) Add(id NodeID) {
	if _, ok := r.nodes[id]; ok {
		return
	}
	r.nodes[id] = struct{}{}
	r.rebuild()
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(id NodeID) {
	if _, ok := r.nodes[id]; !ok {
		return
	}
	delete(r.nodes, id)
	r.rebuild()
}

// rebuild regenerates the sorted point set. Membership changes are
// rare and node counts small, so a full rebuild beats incremental
// bookkeeping.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for id := range r.nodes {
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", id, v)),
				node: id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties break on node ID so placement is deterministic
		// regardless of membership-change order.
		return r.points[i].node < r.points[j].node
	})
}

// Owner maps a stream key to its owning member: the first virtual node
// clockwise from the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (NodeID, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].node, true
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

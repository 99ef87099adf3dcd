// Package simtest provides a recording sim.Context for driving protocol
// handlers directly in unit tests, without a scheduler.
package simtest

import (
	"math/rand"

	"sspubsub/internal/sim"
)

// Ctx is a sim.Context that records every Send.
type Ctx struct {
	ID   sim.NodeID
	Out  []sim.Message
	Rng  *rand.Rand
	Time float64
}

// NewCtx creates a recording context for node id.
func NewCtx(id sim.NodeID) *Ctx {
	return &Ctx{ID: id, Rng: rand.New(rand.NewSource(int64(id) + 7))}
}

// Self implements sim.Context.
func (c *Ctx) Self() sim.NodeID { return c.ID }

// Send records the message.
func (c *Ctx) Send(to sim.NodeID, topic sim.Topic, body any) {
	c.Out = append(c.Out, sim.Message{To: to, From: c.ID, Topic: topic, Body: body})
}

// Rand implements sim.Context.
func (c *Ctx) Rand() *rand.Rand { return c.Rng }

// Now implements sim.Context.
func (c *Ctx) Now() float64 { return c.Time }

// Take returns and clears the recorded messages.
func (c *Ctx) Take() []sim.Message {
	out := c.Out
	c.Out = nil
	return out
}

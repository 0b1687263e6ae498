package clique

// RoundStats aggregates the traffic of a single synchronous round.
type RoundStats struct {
	// Messages is the number of packets delivered in the round.
	Messages int
	// Words is the total number of words delivered in the round.
	Words int
	// MaxEdgeWords is the maximum number of words carried by any single
	// directed edge in the round. The congested-clique model requires this to
	// stay O(log n) bits, i.e. a small constant number of words.
	MaxEdgeWords int
	// MaxEdgeMessages is the maximum number of packets carried by any single
	// directed edge in the round.
	MaxEdgeMessages int
	// MaxNodeSentWords is the maximum number of words sent by any single node
	// in the round (at most n times the edge budget).
	MaxNodeSentWords int
	// MaxNodeRecvWords is the maximum number of words received by any single
	// node in the round.
	MaxNodeRecvWords int
	// Dropped is the number of logical messages (frames count as their
	// message count, see SendFramed) addressed to nodes whose program had
	// already returned when the round was delivered.
	Dropped int
}

// mergeShard folds the statistics of one delivery shard — the packets
// addressed to one receiver range — into the round's: counts add up and the
// per-receiver and per-message-count maxima are taken, so the result is the
// same for any split of the receivers. MaxEdgeWords and MaxNodeSentWords are
// set by the deliverer, which needs the worst edge's name and the senders'
// totals across all ranges for them.
func (rs *RoundStats) mergeShard(o RoundStats) {
	rs.Messages += o.Messages
	rs.Words += o.Words
	rs.Dropped += o.Dropped
	rs.MaxEdgeMessages = max(rs.MaxEdgeMessages, o.MaxEdgeMessages)
	rs.MaxNodeRecvWords = max(rs.MaxNodeRecvWords, o.MaxNodeRecvWords)
}

// Metrics aggregates the observable cost of one protocol execution (one
// Run/RunRounds call). These are exactly the quantities the paper's bounds
// are stated in: rounds, per-edge bandwidth, and (self-reported) local
// computation and memory. On a multi-run Network the metrics are per-run:
// they reset when the next run starts; Network.CumulativeMetrics keeps the
// across-run totals.
type Metrics struct {
	// Rounds is the number of completed round barriers.
	Rounds int
	// PerRound holds one entry per completed round.
	PerRound []RoundStats
	// TotalMessages is the total number of packets delivered.
	TotalMessages int64
	// TotalWords is the total number of words delivered.
	TotalWords int64
	// MaxEdgeWords is the maximum over all rounds of RoundStats.MaxEdgeWords.
	MaxEdgeWords int
	// MaxEdgeMessages is the maximum over all rounds of
	// RoundStats.MaxEdgeMessages.
	MaxEdgeMessages int
	// MaxStepsPerNode is the maximum number of self-reported local computation
	// steps over all nodes (see Node.CountSteps). Zero unless the protocol
	// instruments itself.
	MaxStepsPerNode int64
	// MaxMemoryWordsPerNode is the maximum self-reported resident word count
	// over all nodes (see Node.ReportMemory). Zero unless instrumented.
	MaxMemoryWordsPerNode int64
	// DroppedToDeparted counts logical messages addressed to nodes whose
	// program had already returned. Well-formed protocols never produce such
	// messages.
	DroppedToDeparted int
}

// merge folds a completed round into the running totals.
func (m *Metrics) merge(rs RoundStats) {
	m.Rounds++
	m.PerRound = append(m.PerRound, rs)
	m.TotalMessages += int64(rs.Messages)
	m.TotalWords += int64(rs.Words)
	if rs.MaxEdgeWords > m.MaxEdgeWords {
		m.MaxEdgeWords = rs.MaxEdgeWords
	}
	if rs.MaxEdgeMessages > m.MaxEdgeMessages {
		m.MaxEdgeMessages = rs.MaxEdgeMessages
	}
	m.DroppedToDeparted += rs.Dropped
}

// clone returns a deep copy so callers cannot mutate engine state.
func (m *Metrics) clone() Metrics {
	out := *m
	out.PerRound = make([]RoundStats, len(m.PerRound))
	copy(out.PerRound, m.PerRound)
	return out
}

// Cumulative aggregates the cost of every successfully completed run on one
// Network (the session view): totals are summed across runs, maxima are
// taken over runs. Runs that failed or were cancelled are not counted —
// their per-run Metrics remain readable until the next run starts, but they
// never enter the aggregate.
type Cumulative struct {
	// Runs is the number of Run/RunRounds calls that completed without error.
	Runs int
	// Rounds is the total number of round barriers across all runs.
	Rounds int
	// TotalMessages and TotalWords sum the traffic of all runs.
	TotalMessages int64
	TotalWords    int64
	// MaxEdgeWords and MaxEdgeMessages are maxima over all rounds of all runs.
	MaxEdgeWords    int
	MaxEdgeMessages int
	// MaxStepsPerNode and MaxMemoryWordsPerNode are maxima over all runs.
	MaxStepsPerNode       int64
	MaxMemoryWordsPerNode int64
	// DroppedToDeparted sums Metrics.DroppedToDeparted across runs.
	DroppedToDeparted int
}

// Merge folds another aggregate into c — the cross-engine combination rule
// of the session layer's engine pool: totals and counts are summed, maxima
// are taken. Merging is associative and commutative, so the session
// aggregate is independent of which engine served which operation.
func (c *Cumulative) Merge(o Cumulative) {
	c.Runs += o.Runs
	c.Rounds += o.Rounds
	c.TotalMessages += o.TotalMessages
	c.TotalWords += o.TotalWords
	if o.MaxEdgeWords > c.MaxEdgeWords {
		c.MaxEdgeWords = o.MaxEdgeWords
	}
	if o.MaxEdgeMessages > c.MaxEdgeMessages {
		c.MaxEdgeMessages = o.MaxEdgeMessages
	}
	if o.MaxStepsPerNode > c.MaxStepsPerNode {
		c.MaxStepsPerNode = o.MaxStepsPerNode
	}
	if o.MaxMemoryWordsPerNode > c.MaxMemoryWordsPerNode {
		c.MaxMemoryWordsPerNode = o.MaxMemoryWordsPerNode
	}
	c.DroppedToDeparted += o.DroppedToDeparted
}

// accumulate folds one completed run's metrics into the session totals.
func (c *Cumulative) accumulate(m Metrics) {
	c.Runs++
	c.Rounds += m.Rounds
	c.TotalMessages += m.TotalMessages
	c.TotalWords += m.TotalWords
	if m.MaxEdgeWords > c.MaxEdgeWords {
		c.MaxEdgeWords = m.MaxEdgeWords
	}
	if m.MaxEdgeMessages > c.MaxEdgeMessages {
		c.MaxEdgeMessages = m.MaxEdgeMessages
	}
	if m.MaxStepsPerNode > c.MaxStepsPerNode {
		c.MaxStepsPerNode = m.MaxStepsPerNode
	}
	if m.MaxMemoryWordsPerNode > c.MaxMemoryWordsPerNode {
		c.MaxMemoryWordsPerNode = m.MaxMemoryWordsPerNode
	}
	c.DroppedToDeparted += m.DroppedToDeparted
}

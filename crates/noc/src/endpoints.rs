//! The fabric↔core boundary.
//!
//! The fabric pulls tokens out of channel-end output buffers and delivers
//! tokens into input buffers, respecting the credit rule (never deliver
//! into a full buffer). `swallow-board` implements this for real
//! `swallow_xcore::Core`s; tests use light-weight doubles.

use swallow_isa::{NodeId, ResourceId, Token};

/// Access to the channel ends of every core attached to a fabric.
///
/// All methods address a core by its [`NodeId`]; channel ends by their
/// per-core index.
pub trait CoreEndpoints {
    /// True when any chanend on `node` has tokens waiting to transmit.
    /// Should be O(1)-cheap: the default [`Self::for_each_tx_node`] calls
    /// it for every node on every step.
    fn has_tx_pending(&self, node: NodeId) -> bool;

    /// Visits every node of `0..nodes` for which [`Self::has_tx_pending`]
    /// holds, in ascending node order — the nodes the fabric injects from
    /// this step. The default scans all `nodes`; an implementation that
    /// already knows which nodes have output (the board collects them
    /// while running its cores) visits only those, and must still apply
    /// the same test to each, so the visited set is identical.
    fn for_each_tx_node(&self, nodes: usize, visit: &mut dyn FnMut(NodeId)) {
        for node in (0..nodes).map(|n| NodeId(n as u16)) {
            if self.has_tx_pending(node) {
                visit(node);
            }
        }
    }

    /// Visits every chanend index on `node` with tokens waiting to
    /// transmit, in ascending index order. Allocation-free by design
    /// (the old `-> Vec<u8>` shape allocated on every fabric step).
    fn for_each_tx_pending(&self, node: NodeId, visit: &mut dyn FnMut(u8));

    /// How many chanends [`Self::for_each_tx_pending`] would visit on
    /// `node`. The fabric compares it with its count of parked chanends
    /// to skip a node whose every output is parked. The
    /// default counts the visits; an implementation that keeps the count
    /// answers in O(1).
    fn tx_pending_count(&self, node: NodeId) -> usize {
        let mut n = 0;
        self.for_each_tx_pending(node, &mut |_| n += 1);
        n
    }

    /// The next outgoing token of a chanend and its destination.
    fn tx_front(&self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)>;

    /// Removes the next outgoing token (the switch accepted it).
    fn tx_pop(&mut self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)>;

    /// Credit check: can `n` more tokens be delivered to this chanend?
    fn can_accept(&self, node: NodeId, chanend: u8, n: usize) -> bool;

    /// Delivers a token. Returns false when refused (no such chanend or
    /// no credit); the fabric will retry later.
    fn deliver(&mut self, node: NodeId, chanend: u8, token: Token) -> bool;

    /// The mask of `node`'s chanends below 32 that may accept more since
    /// the last call (input read, or the chanend newly allocated), and
    /// clears it. A delivery the fabric found refused parks until its
    /// chanend's bit shows up here, so a missing bit stalls it; a stale
    /// bit only costs one no-op attempt. The fabric asks only for nodes
    /// holding such a parked delivery, at the start of a step.
    ///
    /// The default reports every chanend on every call, which keeps
    /// parked deliveries retrying every step — right for endpoints whose
    /// acceptance can change without telling the fabric.
    fn take_drained(&mut self, node: NodeId) -> u32 {
        let _ = node;
        u32::MAX
    }
}

/// A minimal in-memory endpoint set for fabric unit tests: every node has
/// `CHANENDS` channel ends with unbounded output queues and bounded input
/// buffers.
#[derive(Clone, Debug)]
pub struct TestEndpoints {
    /// Per node, per chanend: queued outgoing (dest, token) pairs.
    pub out: Vec<Vec<std::collections::VecDeque<(ResourceId, Token)>>>,
    /// Per node, per chanend: received tokens.
    pub inbox: Vec<Vec<Vec<Token>>>,
    /// Input buffer capacity (credit window).
    pub in_capacity: usize,
}

/// Channel ends per test node.
pub const TEST_CHANENDS: usize = 8;

impl TestEndpoints {
    /// Creates endpoints for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        TestEndpoints {
            out: vec![vec![Default::default(); TEST_CHANENDS]; nodes],
            inbox: vec![vec![Vec::new(); TEST_CHANENDS]; nodes],
            in_capacity: 8,
        }
    }

    /// Queues a word (as four data tokens) for transmission.
    pub fn queue_word(&mut self, node: NodeId, chanend: u8, dest: ResourceId, word: u32) {
        for t in swallow_isa::token::word_to_tokens(word) {
            self.out[node.raw() as usize][chanend as usize].push_back((dest, t));
        }
    }

    /// Queues a single token.
    pub fn queue_token(&mut self, node: NodeId, chanend: u8, dest: ResourceId, token: Token) {
        self.out[node.raw() as usize][chanend as usize].push_back((dest, token));
    }

    /// Received tokens of one chanend.
    pub fn received(&self, node: NodeId, chanend: u8) -> &[Token] {
        &self.inbox[node.raw() as usize][chanend as usize]
    }

    /// Drains and reassembles received data tokens into words (MSB first),
    /// ignoring control tokens.
    pub fn received_words(&self, node: NodeId, chanend: u8) -> Vec<u32> {
        let bytes: Vec<u8> = self
            .received(node, chanend)
            .iter()
            .filter_map(|t| t.data())
            .collect();
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }
}

impl CoreEndpoints for TestEndpoints {
    fn has_tx_pending(&self, node: NodeId) -> bool {
        self.out[node.raw() as usize].iter().any(|q| !q.is_empty())
    }

    fn for_each_tx_pending(&self, node: NodeId, visit: &mut dyn FnMut(u8)) {
        for (i, q) in self.out[node.raw() as usize].iter().enumerate() {
            if !q.is_empty() {
                visit(i as u8);
            }
        }
    }

    fn tx_front(&self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        self.out[node.raw() as usize][chanend as usize]
            .front()
            .copied()
    }

    fn tx_pop(&mut self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        self.out[node.raw() as usize][chanend as usize].pop_front()
    }

    fn can_accept(&self, node: NodeId, chanend: u8, n: usize) -> bool {
        let node = node.raw() as usize;
        if node >= self.inbox.len() || chanend as usize >= TEST_CHANENDS {
            return false;
        }
        // Test inboxes are unbounded archives; emulate a credit window by
        // always granting `in_capacity` (tests that need stalls shrink it).
        n <= self.in_capacity
    }

    fn deliver(&mut self, node: NodeId, chanend: u8, token: Token) -> bool {
        let n = node.raw() as usize;
        if n >= self.inbox.len() || chanend as usize >= TEST_CHANENDS {
            return false;
        }
        self.inbox[n][chanend as usize].push(token);
        true
    }
}

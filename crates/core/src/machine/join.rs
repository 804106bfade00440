//! Join records and join resolution (the paper's §2.2 "Join resolution"
//! and the `[fork]`/`[join-block]`/`[join-continue]` rules of Figure 30).
//!
//! While a program executes, the runtime keeps a record of the tree
//! induced by the `fork` instructions. Each `fork` on a join record adds a
//! *node* with two slots — slot 0 for the parent's side, slot 1 for the
//! child's — whose parent pointer is the forking task's previous position
//! in the tree (or the root for the first fork). When a task issues
//! `join`, it stashes its register file in its slot; the first of a pair
//! to arrive terminates, the second triggers a *merge*: the register files
//! are combined under the continuation block's `ΔR` (`MergeR`, Figure 27)
//! and a combined task resumes at the combining block, positioned one
//! level up the tree. A task joining at the root jumps to the record's
//! continuation label.

use crate::cost::CostGraph;
use crate::isa::Label;
use crate::machine::value::{MachineError, RegFile};

/// Identifier of a join record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinId(pub(crate) u32);

impl JoinId {
    /// Index into the store.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a fork-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Index into the record's node arena (stable for the record's
    /// lifetime — usable as an external key, e.g. in trace events).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A task's position in the fork tree of one join record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Assoc {
    /// The task is at the root: its `join` completes the record.
    Root,
    /// The task occupies `slot` (0 = parent side, 1 = child side) of a
    /// node.
    Node {
        /// The node.
        node: NodeId,
        /// Which slot (0 or 1).
        slot: u8,
    },
}

/// A stashed join participant: its register file plus the cost counters
/// accumulated since its side of the fork (used by work/span accounting).
#[derive(Debug, Clone)]
pub struct Stash {
    /// The task's register file at the join.
    pub regs: RegFile,
    /// Relative work since the fork.
    pub rel_work: u64,
    /// Relative span since the fork.
    pub rel_span: u64,
    /// The task's other join-record associations, inherited by the merged
    /// task.
    pub assocs: Vec<(JoinId, Assoc)>,
    /// Explicit cost graph of the task's side since the fork, when the
    /// executor builds graphs (see
    /// [`MachineConfig::build_cost_graph`](crate::machine::MachineConfig)).
    pub graph: Option<CostGraph>,
    /// Whether the stashing task was detached (forks inside a detached
    /// task stay inside it: the merged task inherits the flag).
    pub detached: bool,
}

#[derive(Debug)]
struct Node {
    record: JoinId,
    parent: Assoc,
    slots: [Option<Stash>; 2],
    /// Work/span prefix of the forking task at the fork point.
    prefix_work: u64,
    prefix_span: u64,
    /// Explicit-graph prefix (when graphs are being built).
    prefix_graph: Option<CostGraph>,
}

#[derive(Debug)]
struct Record {
    cont: Label,
    open_edges: u32,
}

/// What happened when a task issued `join`.
///
/// The `Merge` variant carries both stashes by value — it is constructed
/// once per fork and consumed immediately, so boxing would only add an
/// allocation to the join hot path.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum JoinOutcome {
    /// The task was the first of its pair: it stashed its state and
    /// terminates (`[join-block]`).
    Stashed,
    /// The task was the second of its pair: a merged task must resume at
    /// the record's combining block.
    Merge {
        /// Parent-side stash.
        parent: Stash,
        /// Child-side stash.
        child: Stash,
        /// Association of the merged task for this record (one level up).
        up: Assoc,
        /// Work/span prefix recorded at the fork.
        prefix: (u64, u64),
        /// Explicit-graph prefix recorded at the fork.
        prefix_graph: Option<CostGraph>,
        /// The record's continuation label (whose `jtppt` annotation names
        /// the combining block and `ΔR`).
        cont: Label,
    },
    /// The task was at the root and the record is complete: control
    /// continues at the record's continuation label (`[join-continue]`).
    Continue {
        /// The continuation label.
        cont: Label,
    },
}

/// The store of join records and fork-tree nodes of a machine.
#[derive(Debug, Default)]
pub struct JoinStore {
    records: Vec<Record>,
    nodes: Vec<Node>,
}

impl JoinStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        JoinStore::default()
    }

    /// `jralloc`: allocates a record with the given continuation label.
    pub fn alloc(&mut self, cont: Label) -> JoinId {
        let id = JoinId(self.records.len() as u32);
        self.records.push(Record {
            cont,
            open_edges: 0,
        });
        id
    }

    /// The continuation label of a record.
    pub fn cont(&self, j: JoinId) -> Label {
        self.records[j.index()].cont
    }

    /// Number of dependency edges still open on `j`.
    pub fn open_edges(&self, j: JoinId) -> u32 {
        self.records[j.index()].open_edges
    }

    /// `fork`: registers a dependency edge on `j` by a task currently
    /// associated as `current` (or `Assoc::Root` if it has none —
    /// the record's allocator before its first fork).
    ///
    /// Returns `(parent_assoc, child_assoc)`: the forking task's new
    /// association and the child's.
    pub fn fork(
        &mut self,
        j: JoinId,
        current: Assoc,
        prefix_work: u64,
        prefix_span: u64,
        prefix_graph: Option<CostGraph>,
    ) -> (Assoc, Assoc) {
        let node = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            record: j,
            parent: current,
            slots: [None, None],
            prefix_work,
            prefix_span,
            prefix_graph,
        });
        self.records[j.index()].open_edges += 1;
        (Assoc::Node { node, slot: 0 }, Assoc::Node { node, slot: 1 })
    }

    /// `join`: a task associated as `assoc` on record `j` arrives with its
    /// stash.
    ///
    /// # Errors
    ///
    /// [`MachineError::JoinNotReady`] if a root join happens while edges
    /// remain open — a malformed program.
    pub fn join(
        &mut self,
        j: JoinId,
        assoc: Assoc,
        stash: Stash,
    ) -> Result<JoinOutcome, MachineError> {
        match assoc {
            Assoc::Root => {
                if self.records[j.index()].open_edges != 0 {
                    return Err(MachineError::JoinNotReady);
                }
                Ok(JoinOutcome::Continue {
                    cont: self.records[j.index()].cont,
                })
            }
            Assoc::Node { node, slot } => {
                let n = &mut self.nodes[node.0 as usize];
                debug_assert_eq!(n.record, j, "association crosses join records");
                n.slots[slot as usize] = Some(stash);
                if n.slots[0].is_some() && n.slots[1].is_some() {
                    let parent = n.slots[0].take().expect("slot 0 filled");
                    let child = n.slots[1].take().expect("slot 1 filled");
                    let up = n.parent;
                    let prefix = (n.prefix_work, n.prefix_span);
                    let prefix_graph = n.prefix_graph.take();
                    self.records[j.index()].open_edges -= 1;
                    Ok(JoinOutcome::Merge {
                        parent,
                        child,
                        up,
                        prefix,
                        prefix_graph,
                        cont: self.records[j.index()].cont,
                    })
                } else {
                    Ok(JoinOutcome::Stashed)
                }
            }
        }
    }

    /// Merges the association maps of the two sides of a pair, dropping
    /// their entries for `j` (replaced by `up`).
    pub fn merge_assocs(
        j: JoinId,
        up: Assoc,
        parent: &[(JoinId, Assoc)],
        child: &[(JoinId, Assoc)],
    ) -> Vec<(JoinId, Assoc)> {
        let mut out: Vec<(JoinId, Assoc)> = Vec::with_capacity(parent.len() + 1);
        for &(id, a) in parent.iter().chain(child.iter()) {
            if id != j {
                debug_assert!(
                    !out.iter().any(|&(o, _)| o == id),
                    "conflicting associations for record {id:?}"
                );
                out.push((id, a));
            }
        }
        out.push((j, up));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::value::Value;

    fn stash(marker: i64) -> Stash {
        let mut regs = RegFile::new(1);
        regs.write(crate::isa::Reg(0), Value::Int(marker));
        Stash {
            regs,
            rel_work: 0,
            rel_span: 0,
            assocs: vec![],
            graph: None,
            detached: false,
        }
    }

    #[test]
    fn single_fork_pair_merges() {
        let mut js = JoinStore::new();
        let j = js.alloc(Label(7));
        let (pa, ca) = js.fork(j, Assoc::Root, 5, 5, None);
        assert_eq!(js.open_edges(j), 1);
        // First joiner stashes.
        match js.join(j, ca, stash(2)).unwrap() {
            JoinOutcome::Stashed => {}
            other => panic!("expected stash, got {other:?}"),
        }
        // Second joiner merges; merged task moves to the root.
        match js.join(j, pa, stash(1)).unwrap() {
            JoinOutcome::Merge {
                parent, child, up, ..
            } => {
                assert_eq!(parent.regs.read_raw(crate::isa::Reg(0)), Value::Int(1));
                assert_eq!(child.regs.read_raw(crate::isa::Reg(0)), Value::Int(2));
                assert_eq!(up, Assoc::Root);
            }
            other => panic!("expected merge, got {other:?}"),
        }
        assert_eq!(js.open_edges(j), 0);
        // Root join continues to the record's continuation.
        match js.join(j, Assoc::Root, stash(3)).unwrap() {
            JoinOutcome::Continue { cont } => assert_eq!(cont, Label(7)),
            other => panic!("expected continue, got {other:?}"),
        }
    }

    #[test]
    fn nested_forks_resolve_bottom_up() {
        let mut js = JoinStore::new();
        let j = js.alloc(Label(0));
        let (a1, b) = js.fork(j, Assoc::Root, 0, 0, None); // A forks B
        let (a2, c) = js.fork(j, a1, 0, 0, None); // A forks C
        assert_eq!(js.open_edges(j), 2);
        // C joins, then A joins: merge at the inner node, up = a1.
        assert!(matches!(
            js.join(j, c, stash(3)).unwrap(),
            JoinOutcome::Stashed
        ));
        let up = match js.join(j, a2, stash(1)).unwrap() {
            JoinOutcome::Merge { up, .. } => up,
            other => panic!("{other:?}"),
        };
        assert_eq!(up, a1);
        assert_eq!(js.open_edges(j), 1);
        // B joins, merged(A,C) joins as a1: outer merge, up = Root.
        assert!(matches!(
            js.join(j, b, stash(2)).unwrap(),
            JoinOutcome::Stashed
        ));
        match js.join(j, up, stash(13)).unwrap() {
            JoinOutcome::Merge { up, .. } => assert_eq!(up, Assoc::Root),
            other => panic!("{other:?}"),
        }
        assert_eq!(js.open_edges(j), 0);
    }

    #[test]
    fn premature_root_join_is_error() {
        let mut js = JoinStore::new();
        let j = js.alloc(Label(0));
        js.fork(j, Assoc::Root, 0, 0, None);
        assert_eq!(
            js.join(j, Assoc::Root, stash(0)).unwrap_err(),
            MachineError::JoinNotReady
        );
    }

    #[test]
    fn merge_assocs_carries_other_records() {
        let j0 = JoinId(0);
        let j1 = JoinId(1);
        let parent = vec![(j0, Assoc::Root), (j1, Assoc::Root)];
        let child: Vec<(JoinId, Assoc)> = vec![(j0, Assoc::Root)];
        let merged = JoinStore::merge_assocs(
            j0,
            Assoc::Node {
                node: NodeId(0),
                slot: 0,
            },
            &parent,
            &child,
        );
        assert_eq!(merged.len(), 2);
        assert!(merged.iter().any(|&(id, a)| id == j1 && a == Assoc::Root));
        assert!(merged
            .iter()
            .any(|&(id, a)| id == j0 && matches!(a, Assoc::Node { .. })));
    }
}

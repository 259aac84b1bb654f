//! The exploration engine: a breadth-first search over flat arenas.
//!
//! Exploration runs over *composite-state keys*: each key is `key_words`
//! `u64`s laid out as `[privacy words | stored words | packed u16 progress
//! counters]`, so hashing, equality and successor computation are all
//! straight word operations. The whole working set lives in flat arenas:
//!
//! * every discovered key sits in one `Vec<u64>`, numbered in discovery
//!   order. A breadth-first search expands nodes in the order it discovers
//!   them, so the frontier is simply the ids not yet expanded;
//! * every privacy state is its packed words in a second `Vec<u64>`;
//! * every transition is its source id plus one `target << 32 | label`
//!   word;
//! * the node being expanded writes its successors into one reusable
//!   buffer, which the merge then folds in.
//!
//! Two [`IdTable`]s find a key's and a privacy state's id. They hold ids
//! only: a probe compares the arena's words in place, and nothing is
//! allocated per key.
//!
//! **Transition dedup.** Like the reference generator, the engine adds a
//! (source, target, label) transition once. The transitions one node emits
//! are contiguous, and a privacy state's transitions come only from the
//! nodes that carry it, so a duplicate can only sit in the current node's
//! own range or in an earlier expansion of the same privacy state. The
//! merge scans those ranges. Once a state's earlier expansions have emitted
//! more than [`SCAN_BOUND`] transitions (a hub state, carried by many
//! nodes), its transitions move into a table keyed by (source, target,
//! label), so no state's dedup turns quadratic.
//!
//! Nodes are expanded and merged in exactly the order of the reference
//! implementation, so state numbering, transition order and the
//! `max_states` failure point are identical, and the differential tests
//! require the engine's LTS to equal the reference's. The bound is enforced
//! when a composite state is *inserted*, so the arena never outgrows it.
//! The [`Lts`] keeps the transition columns the search built: after the
//! search, `sources` and `edges` move into it unchanged.

use crate::compile::CompiledModel;
use crate::generate::GeneratorConfig;
use crate::hash::{hash_words, IdTable};
use crate::lts::Lts;
use crate::state::PrivacyState;
use privacy_model::ModelError;
use std::ops::Range;

/// A state whose earlier expansions emitted more transitions than this
/// dedups its later ones through the hub table instead of scanning them.
const SCAN_BOUND: usize = 32;

/// `last_expansion` of a state with no recorded expansion.
const NO_EXPANSION: u32 = u32::MAX;

/// `last_expansion` of a hub state, whose transitions are in the hub table.
const HUB: u32 = u32::MAX - 1;

/// The arenas and tables of one exploration.
struct Exploration<'a> {
    compiled: &'a CompiledModel,
    config: &'a GeneratorConfig,
    key_words: usize,
    /// Every discovered composite key, `key_words` words each; a key's
    /// index is its id.
    keys: Vec<u64>,
    /// The privacy state id of each composite key.
    key_states: Vec<u32>,
    key_ids: IdTable,
    /// Every privacy state's words, `privacy_words` each, in id order.
    state_words: Vec<u64>,
    state_ids: IdTable,
    /// Per state: its last recorded expansion (an index into
    /// `expansions`), [`NO_EXPANSION`] or [`HUB`].
    last_expansion: Vec<u32>,
    /// Recorded expansions: `[first transition, end, previous expansion of
    /// the same state]`.
    expansions: Vec<[u32; 3]>,
    /// Hub states' transitions, keyed by (source, edge).
    hub_edges: IdTable,
    /// Per transition: its source state.
    sources: Vec<u32>,
    /// Per transition: `target << 32 | label`.
    edges: Vec<u64>,
    /// The current node's successor keys, `key_words` words each.
    succ_keys: Vec<u64>,
    /// The current node's successor labels (indices into
    /// [`CompiledModel::labels`]).
    succ_labels: Vec<u32>,
}

/// Runs the exploration, producing the LTS.
pub(crate) fn explore(
    compiled: &CompiledModel,
    config: &GeneratorConfig,
) -> Result<Lts, ModelError> {
    let mut exploration = Exploration::new(compiled, config);
    bound_check(1, config.max_states)?;
    let mut node = 0;
    while node < exploration.key_states.len() {
        exploration.expand(node);
        exploration.merge(node)?;
        node += 1;
    }
    Ok(exploration.into_lts())
}

impl<'a> Exploration<'a> {
    /// An exploration holding the initial node: the all-zero key, whose
    /// privacy state is the absolute state (id 0).
    fn new(compiled: &'a CompiledModel, config: &'a GeneratorConfig) -> Self {
        let key_words = compiled.key_words();
        let zero = vec![0u64; key_words];
        let mut key_ids = IdTable::new();
        key_ids.find_or_insert(hash_words(&zero), 0, |_| false);
        let mut state_ids = IdTable::new();
        state_ids.find_or_insert(hash_words(&zero[..compiled.privacy_words]), 0, |_| false);
        Exploration {
            compiled,
            config,
            key_words,
            state_words: zero[..compiled.privacy_words].to_vec(),
            keys: zero,
            key_states: vec![0],
            key_ids,
            state_ids,
            last_expansion: vec![NO_EXPANSION],
            expansions: Vec::new(),
            hub_edges: IdTable::new(),
            sources: Vec::new(),
            edges: Vec::new(),
            succ_keys: Vec::new(),
            succ_labels: Vec::new(),
        }
    }

    /// Computes the successors of composite `node` into the successor
    /// buffer, in the reference implementation's order.
    fn expand(&mut self, node: usize) {
        let (compiled, config, kw) = (self.compiled, self.config, self.key_words);
        let (pw, sw) = (compiled.privacy_words, compiled.store_words);
        let key = &self.keys[node * kw..(node + 1) * kw];
        let succ_keys = &mut self.succ_keys;
        let succ_labels = &mut self.succ_labels;
        succ_keys.clear();
        succ_labels.clear();

        // Service flows: fire the next flow of every enabled service.
        let progress_of = |service_index: usize| get_progress(&key[pw + sw..], service_index);
        let mut fire = |service_index: usize, progress: u16| {
            let flow = &compiled.services[service_index].flows[usize::from(progress)];
            let at = succ_keys.len();
            succ_keys.extend_from_slice(key);
            let succ = &mut succ_keys[at..];
            for (dst, src) in succ[..pw].iter_mut().zip(flow.privacy_mask.iter()) {
                *dst |= *src;
            }
            for (dst, src) in succ[pw..pw + sw].iter_mut().zip(flow.store_mask.iter()) {
                *dst |= *src;
            }
            set_progress(&mut succ[pw + sw..], service_index, progress + 1);
            succ_labels.push(flow.label);
        };
        let unfinished = |i: usize| usize::from(progress_of(i)) < compiled.services[i].flows.len();

        if config.interleave_services {
            for service_index in (0..compiled.services.len()).filter(|&i| unfinished(i)) {
                fire(service_index, progress_of(service_index));
            }
        } else if let Some(service_index) = (0..compiled.services.len()).find(|&i| unfinished(i)) {
            // Sequential execution: only the first unfinished service fires.
            fire(service_index, progress_of(service_index));
        }

        // Potential reads: any actor the policy allows to read data present in a
        // datastore may perform an (unscheduled) read. Slot-index order equals
        // the reference implementation's lexicographic (store, field) order.
        if config.explore_potential_reads {
            for (word_index, mut word) in key[pw..pw + sw].iter().copied().enumerate() {
                while word != 0 {
                    let slot = word_index * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    for reader in &compiled.slots[slot].readers {
                        let at = succ_keys.len();
                        match reader.has_bit {
                            Some(bit) => {
                                let (w, mask) = (bit as usize / 64, 1u64 << (bit % 64));
                                if key[w] & mask != 0 {
                                    continue; // The reader already identified the field.
                                }
                                succ_keys.extend_from_slice(key);
                                succ_keys[at + w] |= mask;
                            }
                            // Reader or field outside the variable space: the
                            // reference implementation emits a self-loop, and
                            // the unchanged key merges back onto this node.
                            None => succ_keys.extend_from_slice(key),
                        }
                        succ_labels.push(reader.label);
                    }
                }
            }
        }
    }

    /// Folds the successor buffer of composite `node` into the arenas, in
    /// discovery order: new keys and states get the next ids, and each
    /// transition not already emitted from the node's state is appended.
    fn merge(&mut self, node: usize) -> Result<(), ModelError> {
        let (kw, pw) = (self.key_words, self.compiled.privacy_words);
        let from = self.key_states[node];
        let start = self.edges.len();
        let hub = self.promote_hub(from);
        let (succ_keys, succ_labels) =
            (std::mem::take(&mut self.succ_keys), std::mem::take(&mut self.succ_labels));

        for (i, &label) in succ_labels.iter().enumerate() {
            let key = &succ_keys[i * kw..(i + 1) * kw];
            let next_key = id_of(self.key_states.len())?;
            let keys = &self.keys;
            let found = self.key_ids.find_or_insert(hash_words(key), next_key, |id| {
                keys[id as usize * kw..(id as usize + 1) * kw] == *key
            });
            let to = match found {
                Some(id) => self.key_states[id as usize],
                None => {
                    let privacy = &key[..pw];
                    let next_state = self.last_expansion.len() as u32;
                    let words = &self.state_words;
                    let found =
                        self.state_ids.find_or_insert(hash_words(privacy), next_state, |id| {
                            words[id as usize * pw..(id as usize + 1) * pw] == *privacy
                        });
                    let to = found.unwrap_or_else(|| {
                        self.state_words.extend_from_slice(privacy);
                        self.last_expansion.push(NO_EXPANSION);
                        next_state
                    });
                    self.keys.extend_from_slice(key);
                    self.key_states.push(to);
                    bound_check(self.key_states.len(), self.config.max_states)?;
                    to
                }
            };

            let edge = u64::from(to) << 32 | u64::from(label);
            if !self.emitted(from, edge, start, hub) {
                self.sources.push(from);
                self.edges.push(edge);
            }
        }

        (self.succ_keys, self.succ_labels) = (succ_keys, succ_labels);

        let end = id_of(self.edges.len())?;
        if !hub && end as usize > start {
            let state = from as usize;
            self.expansions.push([start as u32, end, self.last_expansion[state]]);
            self.last_expansion[state] = (self.expansions.len() - 1) as u32;
        }
        Ok(())
    }

    /// The transition ranges of `state`'s recorded expansions, latest
    /// first (none for a hub).
    fn expansions_of(&self, state: u32) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut next = self.last_expansion[state as usize];
        std::iter::from_fn(move || {
            let [first, end, previous] = *self.expansions.get(next as usize)?;
            next = previous;
            Some(first as usize..end as usize)
        })
    }

    /// Whether `state` dedups through the hub table. A state whose earlier
    /// expansions emitted more than [`SCAN_BOUND`] transitions is promoted
    /// here: its transitions so far move into the table.
    fn promote_hub(&mut self, state: u32) -> bool {
        if self.last_expansion[state as usize] == HUB {
            return true;
        }
        if self.expansions_of(state).map(|range| range.len()).sum::<usize>() <= SCAN_BOUND {
            return false;
        }
        let earlier: Vec<usize> = self.expansions_of(state).flatten().collect();
        for transition in earlier {
            let hash = hash_words(&[u64::from(state), self.edges[transition]]);
            // Emitted transitions are distinct, so each one is new here.
            self.hub_edges.find_or_insert(hash, transition as u32, |_| false);
        }
        self.last_expansion[state as usize] = HUB;
        true
    }

    /// Whether transition (`from`, `edge`) was already emitted: by the
    /// current node (transitions `start..`) or by an earlier expansion of
    /// `from`. A hub state's check also records the transition about to be
    /// appended.
    fn emitted(&mut self, from: u32, edge: u64, start: usize, hub: bool) -> bool {
        if !hub {
            return self.edges[start..].contains(&edge)
                || self.expansions_of(from).any(|range| self.edges[range].contains(&edge));
        }
        let (sources, edges) = (&self.sources, &self.edges);
        let hash = hash_words(&[u64::from(from), edge]);
        let found = self.hub_edges.find_or_insert(hash, edges.len() as u32, |t| {
            sources[t as usize] == from && edges[t as usize] == edge
        });
        found.is_some()
    }

    /// Hands the arenas over as an [`Lts`]: the transition columns move
    /// across as they are, and the key arenas and id tables are dropped
    /// before the states are unpacked and the CSR is built.
    fn into_lts(mut self) -> Lts {
        let (compiled, state_count) = (self.compiled, self.last_expansion.len());
        let mut sources = std::mem::take(&mut self.sources);
        let mut edges = std::mem::take(&mut self.edges);
        let state_words = std::mem::take(&mut self.state_words);
        drop(self);
        sources.shrink_to_fit();
        edges.shrink_to_fit();
        let pw = compiled.privacy_words;
        let states = (0..state_count)
            .map(|state| {
                let words = state_words[state * pw..(state + 1) * pw].to_vec();
                PrivacyState::from_raw_words(words, compiled.privacy_len)
            })
            .collect();
        drop(state_words);
        Lts::from_columns(compiled.space.clone(), states, compiled.labels.clone(), sources, edges)
    }
}

/// An arena length as the next `u32` id. The arenas number everything in
/// `u32`s; an exploration that outgrows them fails instead of wrapping.
fn id_of(len: usize) -> Result<u32, ModelError> {
    u32::try_from(len)
        .ok()
        .filter(|&id| id < HUB)
        .ok_or_else(|| ModelError::invalid(format!("lts generation outgrew its {HUB} 32-bit ids")))
}

/// Reads the packed `u16` progress counter of one service.
#[inline]
fn get_progress(progress_words: &[u64], service_index: usize) -> u16 {
    let shift = (service_index % 4) * 16;
    ((progress_words[service_index / 4] >> shift) & 0xffff) as u16
}

/// Writes the packed `u16` progress counter of one service.
#[inline]
fn set_progress(progress_words: &mut [u64], service_index: usize, value: u16) {
    let shift = (service_index % 4) * 16;
    let word = &mut progress_words[service_index / 4];
    *word = (*word & !(0xffffu64 << shift)) | (u64::from(value) << shift);
}

/// Fails once the number of composite states passes the configured bound.
fn bound_check(composite_states: usize, max_states: usize) -> Result<(), ModelError> {
    if composite_states > max_states {
        return Err(ModelError::invalid(format!(
            "lts generation exceeded the configured bound of {max_states} composite states"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_counters_pack_four_per_word() {
        let mut words = vec![0u64; 2];
        for (i, value) in [(0usize, 7u16), (1, 65535), (3, 1), (4, 9), (7, 12345)] {
            set_progress(&mut words, i, value);
        }
        assert_eq!(get_progress(&words, 0), 7);
        assert_eq!(get_progress(&words, 1), 65535);
        assert_eq!(get_progress(&words, 2), 0);
        assert_eq!(get_progress(&words, 3), 1);
        assert_eq!(get_progress(&words, 4), 9);
        assert_eq!(get_progress(&words, 7), 12345);

        // Overwriting clears the old value first.
        set_progress(&mut words, 1, 2);
        assert_eq!(get_progress(&words, 1), 2);
        assert_eq!(get_progress(&words, 0), 7);
    }

    #[test]
    fn bound_check_triggers_strictly_above_the_bound() {
        assert!(bound_check(5, 5).is_ok());
        let err = bound_check(6, 5).unwrap_err();
        assert!(err.to_string().contains("bound of 5"));
    }

    #[test]
    fn ids_stop_short_of_the_sentinels() {
        assert_eq!(id_of(7).unwrap(), 7);
        assert!(id_of(HUB as usize - 1).is_ok());
        assert!(id_of(HUB as usize).is_err());
        assert!(id_of(usize::MAX).is_err());
    }
}

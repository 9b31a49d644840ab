//! Durable tenant journal: append-only, checksummed records of every
//! committed state mutation, with torn-tail-tolerant recovery and
//! snapshot compaction.
//!
//! # Format
//!
//! The journal is a binary file: an 8-byte magic header
//! (`EDFJRNL1`) followed by length-prefixed, checksummed frames:
//!
//! ```text
//! | payload len: u32 LE | FNV-1a 64 of payload: u64 LE | payload |
//! ```
//!
//! Each payload encodes one [`JournalRecord`].  The reader
//! ([`Journal::open`]) accepts the longest valid prefix: the first frame
//! with a short header, short payload, oversized length, checksum
//! mismatch or undecodable payload ends the replay, and the file is
//! truncated back to the end of the last valid frame so subsequent
//! appends continue from a clean tail.  A torn write at a crash therefore
//! loses at most the suffix from the torn record on — never the committed
//! prefix (see the fault-injection tests, which forge short writes and
//! bit flips deliberately).
//!
//! # Durability contract
//!
//! * [`Journal::append`] hands the frame to the OS (`write_all`) before
//!   returning: a committed mutation survives **process death** (e.g.
//!   `kill -9`) unconditionally, because the bytes live in the kernel
//!   page cache, not in user-space buffers.
//! * Surviving **machine death** (power loss) additionally requires
//!   [`Journal::sync`] (`fsync`), exposed to clients as the `SYNC`
//!   protocol command; [`Journal::compact`] also syncs before renaming
//!   the compacted file into place.
//!
//! # Replay semantics
//!
//! Records replay in append order into [`JournalState`]: `Tenant` creates
//! an empty tenant (or empties an existing one, which is how a tenant
//! re-registered with a new base replays), `Admit` appends a committed
//! component under its service-assigned id, `Evict` removes one by id,
//! `Mode` switches the service-level objective and `NextId` raises the id
//! allocator floor (written by snapshots so recovered services never
//! reuse ids).  The rebuilt state is **bit-identical** to the pre-crash
//! committed state — components replay in their original insertion order,
//! so every derived aggregate (utilization sums, bounds, deadline order)
//! is reproduced exactly; the `recovery_equivalence` proptest pins this
//! against the live service.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use edf_analysis::workload::DemandComponent;
use edf_model::Time;

use crate::SlaMode;

/// File magic: journal format version 1.
const MAGIC: &[u8; 8] = b"EDFJRNL1";

/// Upper bound on one frame's payload, so a bit-flipped length field can
/// never make the reader allocate or skip gigabytes: anything larger is
/// treated as corruption.
const MAX_PAYLOAD_BYTES: u32 = 1 << 20;

/// One durable state mutation (or snapshot element).  See the [module
/// documentation](self) for replay semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A tenant now exists with no committed components (even if it
    /// never commits one).  Replay resets an existing tenant of that name
    /// to empty, so a re-registration followed by its base `Admit`s
    /// recovers the new base alone.  Every other writer emits it only for
    /// a tenant that does not exist yet.
    Tenant {
        /// Tenant name.
        tenant: String,
    },
    /// A component was admitted and committed under `id`.
    Admit {
        /// Owning tenant.
        tenant: String,
        /// Service-assigned stable component id.
        id: u64,
        /// The committed component.
        component: DemandComponent,
    },
    /// The component with `id` was evicted.
    Evict {
        /// Owning tenant.
        tenant: String,
        /// Service-assigned id of the removed component.
        id: u64,
    },
    /// The service-level objective changed.
    Mode(SlaMode),
    /// Floor for the id allocator (snapshots write this so recovered
    /// services never reuse an id that was live pre-compaction).
    NextId(u64),
}

/// The state a journal replays into: per-tenant committed components
/// (with their stable ids, in insertion order), the last recorded mode
/// and the id allocator floor.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    /// `(tenant, committed (id, component) list)` in tenant creation
    /// order.
    pub tenants: Vec<(String, Vec<(u64, DemandComponent)>)>,
    /// The last recorded [`SlaMode`], if any.
    pub mode: Option<SlaMode>,
    /// Smallest id the allocator may hand out next.
    pub next_id: u64,
}

impl JournalState {
    /// Replays `record` into the state (see the [module docs](self)).
    pub fn apply(&mut self, record: &JournalRecord) {
        match record {
            JournalRecord::Tenant { tenant } => self.tenant_entry(tenant).clear(),
            JournalRecord::Admit {
                tenant,
                id,
                component,
            } => {
                self.next_id = self.next_id.max(id + 1);
                self.tenant_entry(tenant).push((*id, *component));
            }
            JournalRecord::Evict { tenant, id } => {
                let committed = self.tenant_entry(tenant);
                if let Some(index) = committed.iter().position(|(existing, _)| existing == id) {
                    committed.remove(index);
                }
            }
            JournalRecord::Mode(mode) => self.mode = Some(*mode),
            JournalRecord::NextId(id) => self.next_id = self.next_id.max(*id),
        }
    }

    fn tenant_entry(&mut self, tenant: &str) -> &mut Vec<(u64, DemandComponent)> {
        if let Some(index) = self.tenants.iter().position(|(name, _)| name == tenant) {
            return &mut self.tenants[index].1;
        }
        self.tenants.push((tenant.to_owned(), Vec::new()));
        &mut self.tenants.last_mut().expect("just pushed").1
    }
}

/// A deliberate corruption of one append, used by the deterministic
/// fault-injection harness to prove torn-tail tolerance (see
/// [`Journal::append_faulty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Only the first `keep` bytes of the frame reach the file — a torn
    /// write at a crash (`keep = 0` models a record lost entirely, which
    /// is indistinguishable from crashing just before the append).
    ShortWrite {
        /// Number of frame bytes actually written.
        keep: usize,
    },
    /// One bit of the frame is flipped — media corruption the checksum
    /// must catch.
    BitFlip {
        /// Bit index into the frame (taken modulo the frame length).
        bit: u64,
    },
}

/// The append-only journal file (see the [module documentation](self)
/// for format, durability and replay semantics).
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Bytes of valid journal prefix (header + intact frames).
    len: u64,
    /// Frames appended (valid records written by this handle or replayed
    /// at open).
    records: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays its valid prefix
    /// and truncates any torn/corrupt tail.  Returns the journal handle
    /// positioned for appends plus the replayed records in append order.
    ///
    /// # Errors
    ///
    /// Fails only on real I/O errors (open/read/truncate); corruption is
    /// not an error — it bounds the replayed prefix.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Vec<JournalRecord>)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let (records, valid_len) = if bytes.is_empty() {
            file.write_all(MAGIC)?;
            (Vec::new(), MAGIC.len() as u64)
        } else if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            // A torn or foreign header: nothing is trustworthy, start
            // over (the old bytes are dropped by the truncate below).
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            (Vec::new(), MAGIC.len() as u64)
        } else {
            let (records, consumed) = decode_frames(&bytes[MAGIC.len()..]);
            (records, (MAGIC.len() + consumed) as u64)
        };

        if valid_len < bytes.len() as u64 {
            file.set_len(valid_len)?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        let record_count = records.len() as u64;
        Ok((
            Journal {
                file,
                path,
                len: valid_len,
                records: record_count,
            },
            records,
        ))
    }

    /// Appends one record frame.  The bytes are handed to the OS before
    /// returning (durable across process death); call [`Journal::sync`]
    /// for machine-death durability.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying write; on error the in-memory
    /// accounting is left unchanged (the caller should treat the append
    /// as not having happened and roll back its own state).
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let frame = encode_frame(record);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Appends one record with `fault` injected into the frame bytes —
    /// the fault-injection harness's model of a torn write
    /// ([`WriteFault::ShortWrite`]) or media corruption
    /// ([`WriteFault::BitFlip`]).  The journal's own accounting still
    /// counts the frame as written, exactly like a real torn write the
    /// process never observed.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying write.
    pub fn append_faulty(&mut self, record: &JournalRecord, fault: WriteFault) -> io::Result<()> {
        let mut frame = encode_frame(record);
        match fault {
            WriteFault::ShortWrite { keep } => frame.truncate(keep.min(frame.len())),
            WriteFault::BitFlip { bit } => {
                let len_bits = frame.len() as u64 * 8;
                let bit = bit % len_bits.max(1);
                frame[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// `fsync`s the journal file: everything appended so far survives
    /// machine death.
    ///
    /// # Errors
    ///
    /// Any I/O error from `fsync`.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Snapshot compaction: atomically replaces the journal with exactly
    /// `records` (the minimal sequence reproducing the current committed
    /// state).  The new file is written beside the journal, `fsync`ed and
    /// renamed into place, so a crash during compaction leaves either the
    /// old journal or the complete new one — never a mix.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing, syncing or renaming the new file.
    pub fn compact(&mut self, records: &[JournalRecord]) -> io::Result<()> {
        let tmp_path = self.path.with_extension("compact-tmp");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(MAGIC)?;
        let mut len = MAGIC.len() as u64;
        for record in records {
            let frame = encode_frame(record);
            tmp.write_all(&frame)?;
            len += frame.len() as u64;
        }
        tmp.sync_data()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen so the handle points at the compacted file, not the
        // unlinked old inode.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.len = len;
        self.records = records.len() as u64;
        Ok(())
    }

    /// Path of the journal file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of valid journal (header + frames written so far).
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Frames appended to (or replayed from) this journal.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.records
    }
}

/// Decodes frames from `bytes`, stopping at the first torn or corrupt
/// one; returns the records and the number of bytes consumed by valid
/// frames.
fn decode_frames(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while let Some(header) = bytes.get(offset..offset + 12) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        if len as u32 > MAX_PAYLOAD_BYTES {
            break;
        }
        let checksum = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let Some(payload) = bytes.get(offset + 12..offset + 12 + len) else {
            break;
        };
        if fnv1a(payload) != checksum {
            break;
        }
        let Some(record) = decode_record(payload) else {
            break;
        };
        records.push(record);
        offset += 12 + len;
    }
    (records, offset)
}

/// Encodes one record as a full frame (header + payload).
fn encode_frame(record: &JournalRecord) -> Vec<u8> {
    let payload = encode_record(record);
    debug_assert!(payload.len() as u32 <= MAX_PAYLOAD_BYTES);
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// FNV-1a 64-bit over `bytes` — cheap, dependency-free corruption check
/// (not cryptographic; the journal defends against crashes and bit rot,
/// not adversaries).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Record tags (payload byte 0).
const TAG_TENANT: u8 = 1;
const TAG_ADMIT: u8 = 2;
const TAG_EVICT: u8 = 3;
const TAG_MODE: u8 = 4;
const TAG_NEXT_ID: u8 = 5;

fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match record {
        JournalRecord::Tenant { tenant } => {
            out.push(TAG_TENANT);
            put_name(&mut out, tenant);
        }
        JournalRecord::Admit {
            tenant,
            id,
            component,
        } => {
            out.push(TAG_ADMIT);
            put_name(&mut out, tenant);
            out.extend_from_slice(&id.to_le_bytes());
            put_component(&mut out, component);
        }
        JournalRecord::Evict { tenant, id } => {
            out.push(TAG_EVICT);
            put_name(&mut out, tenant);
            out.extend_from_slice(&id.to_le_bytes());
        }
        JournalRecord::Mode(mode) => {
            out.push(TAG_MODE);
            match mode {
                SlaMode::Exact => {
                    out.push(0);
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
                SlaMode::Budgeted { deadline } => {
                    out.push(1);
                    let nanos = u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX);
                    out.extend_from_slice(&nanos.to_le_bytes());
                }
                SlaMode::BudgetedUnits { units } => {
                    out.push(2);
                    out.extend_from_slice(&units.to_le_bytes());
                }
            }
        }
        JournalRecord::NextId(id) => {
            out.push(TAG_NEXT_ID);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

fn decode_record(payload: &[u8]) -> Option<JournalRecord> {
    let (&tag, mut rest) = payload.split_first()?;
    let record = match tag {
        TAG_TENANT => JournalRecord::Tenant {
            tenant: take_name(&mut rest)?,
        },
        TAG_ADMIT => JournalRecord::Admit {
            tenant: take_name(&mut rest)?,
            id: take_u64(&mut rest)?,
            component: take_component(&mut rest)?,
        },
        TAG_EVICT => JournalRecord::Evict {
            tenant: take_name(&mut rest)?,
            id: take_u64(&mut rest)?,
        },
        TAG_MODE => {
            let (&kind, tail) = rest.split_first()?;
            rest = tail;
            // One u64 payload whatever the kind: deadline nanos for the
            // wall-clock budget, the unit count for the work budget.
            let payload = take_u64(&mut rest)?;
            JournalRecord::Mode(match kind {
                0 => SlaMode::Exact,
                1 => SlaMode::Budgeted {
                    deadline: Duration::from_nanos(payload),
                },
                2 => SlaMode::BudgetedUnits { units: payload },
                _ => return None,
            })
        }
        TAG_NEXT_ID => JournalRecord::NextId(take_u64(&mut rest)?),
        _ => return None,
    };
    rest.is_empty().then_some(record)
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    debug_assert!(bytes.len() <= usize::from(u16::MAX));
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn take_name(rest: &mut &[u8]) -> Option<String> {
    let (len_bytes, tail) = rest.split_at_checked(2)?;
    let len = usize::from(u16::from_le_bytes(len_bytes.try_into().ok()?));
    let (name, tail) = tail.split_at_checked(len)?;
    *rest = tail;
    String::from_utf8(name.to_vec()).ok()
}

fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    let (bytes, tail) = rest.split_at_checked(8)?;
    *rest = tail;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// Component wire layout: flags (bit 0 = periodic), wcet, absolute first
/// deadline, release offset, then the period for periodic components.
fn put_component(out: &mut Vec<u8>, component: &DemandComponent) {
    out.push(u8::from(component.period().is_some()));
    out.extend_from_slice(&component.wcet().as_u64().to_le_bytes());
    out.extend_from_slice(&component.first_deadline().as_u64().to_le_bytes());
    out.extend_from_slice(&component.release_offset().as_u64().to_le_bytes());
    if let Some(period) = component.period() {
        out.extend_from_slice(&period.as_u64().to_le_bytes());
    }
}

fn take_component(rest: &mut &[u8]) -> Option<DemandComponent> {
    let (&flags, tail) = rest.split_first()?;
    *rest = tail;
    if flags > 1 {
        return None;
    }
    let wcet = Time::new(take_u64(rest)?);
    let deadline = take_u64(rest)?;
    let offset = Time::new(take_u64(rest)?);
    // The stored deadline is absolute (offset + relative); reconstruct
    // via the relative-deadline constructors so the round trip is exact.
    let relative = Time::new(deadline.checked_sub(offset.as_u64())?);
    Some(if flags == 1 {
        let period = Time::new(take_u64(rest)?);
        DemandComponent::periodic_from(wcet, relative, period, offset)
    } else {
        DemandComponent::one_shot(wcet, relative, offset)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("edf-journal-test-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn work_unit_mode_records_round_trip() {
        let path = temp_journal("unit-mode");
        let record = JournalRecord::Mode(SlaMode::BudgetedUnits { units: 123_456 });
        {
            let (mut journal, existing) = Journal::open(&path).expect("open");
            assert!(existing.is_empty());
            journal.append(&record).expect("append");
        }
        let (_, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(replayed, vec![record]);
        let mut state = JournalState::default();
        for replayed in &replayed {
            state.apply(replayed);
        }
        assert_eq!(state.mode, Some(SlaMode::BudgetedUnits { units: 123_456 }));
        let _ = std::fs::remove_file(&path);
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Tenant {
                tenant: "alpha".into(),
            },
            JournalRecord::Admit {
                tenant: "alpha".into(),
                id: 0,
                component: DemandComponent::periodic(Time::new(4), Time::new(9), Time::new(10)),
            },
            JournalRecord::Admit {
                tenant: "alpha".into(),
                id: 1,
                component: DemandComponent::one_shot(Time::new(2), Time::new(5), Time::new(3)),
            },
            JournalRecord::Mode(SlaMode::Budgeted {
                deadline: Duration::from_micros(1500),
            }),
            JournalRecord::Evict {
                tenant: "alpha".into(),
                id: 0,
            },
            JournalRecord::NextId(17),
        ]
    }

    #[test]
    fn round_trips_every_record_kind() {
        let path = temp_journal("roundtrip");
        let written = sample_records();
        {
            let (mut journal, replayed) = Journal::open(&path).expect("open");
            assert!(replayed.is_empty());
            for record in &written {
                journal.append(record).expect("append");
            }
            journal.sync().expect("sync");
        }
        let (journal, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(replayed, written);
        assert_eq!(journal.record_count(), written.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_rebuilds_committed_state() {
        let mut state = JournalState::default();
        for record in sample_records() {
            state.apply(&record);
        }
        assert_eq!(state.tenants.len(), 1);
        let (name, committed) = &state.tenants[0];
        assert_eq!(name, "alpha");
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, 1);
        assert_eq!(
            state.mode,
            Some(SlaMode::Budgeted {
                deadline: Duration::from_micros(1500)
            })
        );
        assert_eq!(state.next_id, 17);
    }

    #[test]
    fn short_write_truncates_to_the_valid_prefix() {
        for keep in [0usize, 1, 5, 11, 12, 13] {
            let path = temp_journal(&format!("short-{keep}"));
            let records = sample_records();
            {
                let (mut journal, _) = Journal::open(&path).expect("open");
                journal.append(&records[0]).expect("append");
                journal.append(&records[1]).expect("append");
                journal
                    .append_faulty(&records[2], WriteFault::ShortWrite { keep })
                    .expect("faulty append");
            }
            let (journal, replayed) = Journal::open(&path).expect("reopen");
            assert_eq!(replayed, records[..2], "keep={keep}");
            // The torn tail is gone: appends continue cleanly.
            let mut journal = journal;
            journal.append(&records[3]).expect("append after recovery");
            drop(journal);
            let (_, replayed) = Journal::open(&path).expect("second reopen");
            assert_eq!(
                replayed,
                vec![records[0].clone(), records[1].clone(), records[3].clone()]
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum() {
        for bit in [0u64, 7, 31, 64, 95, 96, 150] {
            let path = temp_journal(&format!("flip-{bit}"));
            let records = sample_records();
            {
                let (mut journal, _) = Journal::open(&path).expect("open");
                journal.append(&records[0]).expect("append");
                journal
                    .append_faulty(&records[1], WriteFault::BitFlip { bit })
                    .expect("faulty append");
                // A record after the corruption is unreachable (prefix
                // semantics) — deliberately so.
                journal.append(&records[2]).expect("append");
            }
            let (_, replayed) = Journal::open(&path).expect("reopen");
            assert_eq!(replayed, records[..1], "bit={bit}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn compaction_is_atomic_and_replayable() {
        let path = temp_journal("compact");
        let records = sample_records();
        {
            let (mut journal, _) = Journal::open(&path).expect("open");
            for record in &records {
                journal.append(record).expect("append");
            }
            let snapshot = vec![
                JournalRecord::NextId(17),
                JournalRecord::Tenant {
                    tenant: "alpha".into(),
                },
                JournalRecord::Admit {
                    tenant: "alpha".into(),
                    id: 1,
                    component: DemandComponent::one_shot(Time::new(2), Time::new(5), Time::new(3)),
                },
            ];
            journal.compact(&snapshot).expect("compact");
            assert_eq!(journal.record_count(), 3);
            // Appends after compaction land in the new file.
            journal
                .append(&JournalRecord::Evict {
                    tenant: "alpha".into(),
                    id: 1,
                })
                .expect("append post-compact");
        }
        let (_, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(replayed.len(), 4);
        let mut state = JournalState::default();
        for record in &replayed {
            state.apply(record);
        }
        assert_eq!(state.tenants[0].1.len(), 0);
        assert_eq!(state.next_id, 17);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_or_torn_header_restarts_the_journal() {
        let path = temp_journal("header");
        std::fs::write(&path, b"not a journal").expect("seed garbage");
        let (mut journal, replayed) = Journal::open(&path).expect("open over garbage");
        assert!(replayed.is_empty());
        journal.append(&sample_records()[0]).expect("append");
        drop(journal);
        let (_, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(replayed.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}

// Package store implements the data-storage components of a location server
// (paper Section 5 and Fig. 7):
//
//   - ShardedSightingDB — the main-memory database of sighting records kept
//     by leaf servers, with a spatial index over positions (for range and
//     nearest-neighbor queries) and a hash index over object identifiers
//     (for position queries). Records carry soft-state expiration dates.
//     The database is partitioned by object id into independently locked
//     shards — one by default — so updates scale across cores;
//     UpdatePipeline batches concurrent updates per shard (group commit
//     under one lock acquisition). The shard count is fixed when the store
//     is built (WithShards, or the layout of an attached WAL directory), so
//     every operation finds its shard with one hash of the object id. Each
//     shard keeps one record per object: its memtable sighting, the leaf's
//     visitor record (Registration, WithRegistrationLog) and its tombstone.
//   - VisitorDB — an inner server's forwarding table: a child slot and an
//     int64 PathT per object; VisitorRecord is its log and API form. It is
//     persisted via an append-only log so that forwarding paths survive
//     crashes. The paper used DB2 over JDBC; the
//     log-plus-snapshot store here preserves the property that matters
//     (durability of forwarding paths) without an external database.
//   - ShardedWAL — optional per-shard write-ahead logs for the sighting
//     store (WithSightingWAL): each group-commit batch is one log append,
//     and Recover replays all shards in parallel, bulk-loading each shard's
//     spatial index. See the wal.go file comment for the log format,
//     durability modes (WithSync) and recovery guarantees.
//   - ConfigRecord — the persistent configuration record describing a
//     server's service area, parent and children.
//
// # Covering index entries
//
// A memtable sighting's spatial index entry carries, beside the object id
// and the position, the object's offered accuracy (spatial.Item.Acc), so a
// range or nearest-neighbor query can build the location descriptor (pos,
// acc) and qualify a candidate from the index bucket alone — SearchBuckets
// hands the consumer the quadtree's buckets themselves, NearestEntries
// reads the cursor's entries, neither dereferences a record, and their
// consumer needs no second lookup. The invariant around it:
//
//   - Who writes it. The store alone, from the registration on the
//     object's record: an entry is built from the record, and every
//     registration change rebuilds it under the same lock. A hit
//     SearchBuckets reads from a disk run takes the accuracy from the
//     object record its verdict reads (see the read path): the one the
//     run's object table names, or, where the table cannot answer, the one
//     the id lookup finds; SearchBuckets hands such hits on one batch per
//     run leaf, built like a bucket. NearestEntries re-resolves a cold
//     neighbor through Lookup. WAL segments and run files carry no
//     accuracy.
//   - When it is unknown. AccUnknown (−1 — not the zero value, which means
//     "perfectly accurate") marks exactly the entries of objects with no
//     registration: sightings put by store-level callers, and positions
//     recovered from a sighting WAL without the registration log.
//   - Why it is never stale. The accuracy is kept once, on the record, and
//     the entry follows it under one shard lock. A flush drops the records'
//     sightings and tombstones; the registrations stay.
//
// What a range query hands SearchBuckets is its predicate's filter
// rectangle (core.RangePredicate.Bounds): for the majority overlap every
// client asks for, the query area's bounds, because no position outside
// them qualifies; below 0.5, the bounds enlarged by reqAcc. Only the
// memtable buckets and run leaves that meet it are read, so a cold run
// leaf outside the area never is, and the candidates are the items inside
// it: a memtable bucket straddling its border is handed over whole, and
// the consumer drops the items outside. Each bucket comes with the
// rectangle bounding its positions, so the consumer can qualify one deep
// inside the area whole (core.RangePredicate.Interior).
//
// # Tiered sighting storage
//
// With WithTiering, each shard of a ShardedSightingDB becomes the
// memtable of a small per-shard LSM tree, letting a leaf hold sighting
// populations larger than RAM and recover without replaying history.
//
// Run file format, version 4 (run-SSSS-NNNNNNNN.run, immutable once
// renamed into place; byte-level layout at the top of run.go):
//
//	[records][spatial columns][bloom block][index block][leaf directory][112-byte footer]
//
// Records sort strictly ascending by object id; each is a flags byte
// (bit0 tombstone, bit1 T valid, bit2 expires valid), a uvarint-prefixed
// id, and — for live records — a fixed 40-byte payload (T, X, Y, SensAcc,
// expires). The spatial columns hold what a spatial read needs of each
// live record, not the record: sorted along a Hilbert curve over the
// run's MBR into slots, an X column, a Y column (f64 each), the end of
// each slot's id (u32) and the ids back to back. Slots are cut into
// leaves of 64; the leaf directory holds one MBR per leaf. The bloom block
// is a double-hashed FNV-1a filter over every record id (10 bits per key,
// bloomBitsPerKey, ≈1% false positives). The index block holds
// the key range plus a sparse index (one entry per 16 records).
//
// Resident per run are the bloom filter, the sparse index, the leaf
// directory and the spatial columns — ≈ 21 B plus the id's length per
// live record (16 B of position, 4 B of id end, the id, 0.5 B of
// directory) — and, for a run this process wrote, its object table (8 B
// per live record; see the read path); only the records stay on disk,
// read by point lookups and scans. The footer pins the region lengths,
// the record/live counts, the MBR of the live records and one CRC per
// kind of region: bloom + index + directory and spatial columns (both
// verified at open, which reads only those — opening a run costs
// O(metadata + columns), and a run whose columns fail their checksum or
// their own rules is refused there) and records (verified by every
// complete scan: compaction, enumeration). A file of another format
// version is refused at open with the version named; there is no fallback
// reader.
//
// Log format (visitor and registration logs, shard-NNNN.wal segments;
// byte-level layout at the top of wal.go): the header LSWAL001, then
// records framed by a length, its CRC32 and the payload's CRC32. A payload
// reuses the record encoding above: a sighting batch is one live record per
// sighting, a removal the id's tombstone. A JSON-lines log an earlier build
// wrote is refused at open with the file named; there is no fallback reader.
//
// Manifest format (shard-SSSS.manifest, JSON): the shard's run list,
// newest first, plus the next run sequence number. The manifest rename is
// the commit point of every flush and compaction; run files no manifest
// references are crash leftovers, swept at open.
//
// Write path: updates commit to the memtable (WAL-logged as before).
// When a shard's estimated memtable bytes exceed its share of
// MemtableBytes, MaintainTiers — driven by the server's janitor — freezes
// the memtable into a new run (live records and tombstones, id-sorted),
// prepends it to the manifest, clears the memtable and resets the WAL
// segment; at twice the share the update path flushes inline
// (backpressure). Flushes move data between tiers without changing the
// store's logical content, so they emit no deltas and the event pipeline
// is unaffected. Removing or expiring a record whose versions live only
// in runs plants a memtable tombstone that shadows them until compaction.
//
// Read path: Get consults the object's record (sighting, tombstone), then
// runs newest to oldest — each run gated by its key range and bloom
// filter, then one sparse-index probe reading at most 16 records. Both
// spatial query kinds read runs through the leaf directories and the
// resident columns, never the disk: a range query takes the runs whose
// MBR intersects the rectangle and tests the positions of only the leaves
// whose directory MBR intersects it; a nearest-neighbor query runs a
// best-first cursor over the leaves ordered by directory-MBR distance
// (merged behind the quadtree cursors and gated by run-MBR distance, so a
// shard whose runs lie beyond the consumer's stopping distance is never
// opened). A hit is an index entry — the position, an id aliasing the
// run's id column and the registration's accuracy — so neither query
// allocates per hit; SearchArea, which only the benchmark rig's replay
// calls, point-looks a cold hit's whole sighting up in the run holding
// it. The verdict rule for these pruned reads: a slot is only a
// candidate — the query did not look where a newer version of the object
// could be — so every slot that passes the position test (and only those) is judged: is it
// the newest version, and what accuracy does the registration give? A run
// this process wrote carries an object table, one entry per spatial slot
// (leaf·64 + entry) naming the object record of the id there; a flush
// fills it from the memtable objects it writes that its reset keeps (the
// registered ones), a compaction resolves the merged run's ids to the
// registered objects under the shard's read lock before it publishes. Each
// object keeps the sequence of the newest run a flush wrote it into (a
// compaction sets its own for resolved objects of unknown sequence when no
// run is newer). A hit whose entry names a live object of known sequence
// is judged without hashing: the memtable holding the object drops it, so
// does a sequence newer than the hit's run; otherwise it qualifies with
// the object's accuracy. Every other hit is judged by id: looked up in the
// shard's records (a sighting or tombstone drops it) and, bloom-gated, in
// every newer run. That covers runs opened from disk at recovery (which
// builds no table and reads no run data), until this process first
// compacts them; ids without a registered object; objects of
// unknown sequence; and objects deleted from the shard's map, which are
// marked dead. A nearest-neighbor cursor uses the tables only while its
// pinned run list is still the shard's current one. Failed reads, decode
// errors and checksum mismatches of the records — a point lookup's block,
// a full scan — are counted (TierStats.ReadErrors, gauge
// sighting_tier_read_errors), so a damaged run shows up instead of
// silently shrinking answers.
//
// Compaction triggers: a shard exceeding MaxRuns runs (default 4) has its
// whole run set k-way merged into one run off-lock — newest version per
// id wins; tombstones and records expired for more than one full TTL are
// dropped (the one-TTL slack guarantees the janitor's Expired scan
// observed them first) — and the result installs under one manifest
// swap; readers pin runs by reference count, so nothing blocks and files
// unlink only after their last reader.
//
// Recovery order: load manifests → sweep unreferenced runs and
// temporaries → open run footers, metadata and spatial columns (no record
// reads) → replay the short WAL tail covering the current memtable.
// Recover does all of that before returning, tiered or not, and a tail
// that fails to replay fails it: the store does not serve its runs
// without the tail.
package store

//! The catalog: the Time Series table, Model table, group membership, and
//! user-defined dimensions of Figure 6, cached in memory during query
//! processing (the Metadata Cache of Figure 4) and persisted alongside the
//! segment log.

use std::path::Path;

use mdb_encoding::varint;
use mdb_types::{
    DimensionSchema, Dimensions, Gid, GroupMeta, MdbError, Result, Tid, TimeSeriesMeta,
};

use crate::codec::{checksum, read_str, truncated, write_str};

const MAGIC: &[u8; 4] = b"MDBC";
const VERSION: u8 = 1;

/// All metadata of a ModelarDB+ instance.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// The Time Series table, in strictly ascending tid order (lookups
    /// binary-search it).
    pub series: Vec<TimeSeriesMeta>,
    /// Group membership, in strictly ascending gid order (lookups
    /// binary-search it).
    pub groups: Vec<GroupMeta>,
    /// The Model table: Mid → name.
    pub model_names: Vec<String>,
    /// The denormalized user-defined dimensions.
    pub dimensions: Dimensions,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self {
            dimensions: Dimensions::new(),
            ..Self::default()
        }
    }

    /// Metadata for `tid`.
    pub fn series_meta(&self, tid: Tid) -> Option<&TimeSeriesMeta> {
        let i = self.series.binary_search_by_key(&tid, |m| m.tid).ok()?;
        Some(&self.series[i])
    }

    /// The group `gid`.
    pub fn group(&self, gid: Gid) -> Option<&GroupMeta> {
        Some(&self.groups[self.group_index(gid)?])
    }

    /// The position of group `gid` in [`Catalog::groups`]. Groups are
    /// numbered `1..=n` as the builder creates them, so `gid - 1` is tried
    /// before a binary search.
    pub fn group_index(&self, gid: Gid) -> Option<usize> {
        let guess = (gid as usize).wrapping_sub(1);
        if self.groups.get(guess).is_some_and(|g| g.gid == gid) {
            return Some(guess);
        }
        self.groups.binary_search_by_key(&gid, |g| g.gid).ok()
    }

    /// The gid of `tid` (the Gid→Tid mapping of Algorithm 5's query
    /// rewriting step).
    pub fn gid_of(&self, tid: Tid) -> Option<Gid> {
        self.series_meta(tid).map(|m| m.gid)
    }

    /// The scaling constant of `tid` (divided back out in the iterate step
    /// of every aggregate, Section 6.1).
    pub fn scaling_of(&self, tid: Tid) -> f64 {
        self.series_meta(tid).map_or(1.0, |m| m.scaling)
    }

    /// All tids.
    pub fn tids(&self) -> Vec<Tid> {
        self.series.iter().map(|m| m.tid).collect()
    }

    /// Rewrites a set of tids to the gids of their groups, deduplicated —
    /// the `rewriteQuery` step of Algorithms 5 and 6.
    pub fn gids_for_tids(&self, tids: &[Tid]) -> Vec<Gid> {
        let mut gids: Vec<Gid> = tids.iter().filter_map(|&t| self.gid_of(t)).collect();
        gids.sort_unstable();
        gids.dedup();
        gids
    }

    /// Rewrites a dimensional member to the gids of groups containing series
    /// with that member (the member→Gid rewriting of Section 6.2).
    pub fn gids_for_member(&self, dim: usize, level: usize, member: &str) -> Vec<Gid> {
        let Some(m) = self.dimensions.member_id(member) else {
            return Vec::new();
        };
        let tids = self.dimensions.tids_with_member(dim, level, m);
        self.gids_for_tids(tids)
    }

    /// Serializes the catalog to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        varint::write_u64(&mut body, self.series.len() as u64);
        for m in &self.series {
            varint::write_u64(&mut body, u64::from(m.tid));
            varint::write_i64(&mut body, m.sampling_interval);
            body.extend_from_slice(&m.scaling.to_le_bytes());
            varint::write_u64(&mut body, u64::from(m.gid));
        }
        varint::write_u64(&mut body, self.groups.len() as u64);
        for g in &self.groups {
            varint::write_u64(&mut body, u64::from(g.gid));
            varint::write_i64(&mut body, g.sampling_interval);
            varint::write_u64(&mut body, g.tids.len() as u64);
            for &t in &g.tids {
                varint::write_u64(&mut body, u64::from(t));
            }
        }
        varint::write_u64(&mut body, self.model_names.len() as u64);
        for name in &self.model_names {
            write_str(&mut body, name);
        }
        // Dimensions: schemas, then per-tid member paths (as names, so the
        // interning pool is rebuilt on load).
        let schemas = self.dimensions.schemas();
        varint::write_u64(&mut body, schemas.len() as u64);
        for s in schemas {
            write_str(&mut body, s.name());
            varint::write_u64(&mut body, s.height() as u64);
            for level in 1..=s.height() {
                write_str(&mut body, s.level_name(level).unwrap());
            }
        }
        let mut tids: Vec<Tid> = self.dimensions.tids().collect();
        tids.sort_unstable();
        varint::write_u64(&mut body, tids.len() as u64);
        for tid in tids {
            varint::write_u64(&mut body, u64::from(tid));
            for (d, s) in schemas.iter().enumerate() {
                match self.dimensions.path(tid, d) {
                    Some(path) => {
                        varint::write_u64(&mut body, path.len() as u64);
                        for &m in path {
                            write_str(&mut body, self.dimensions.member_name(m));
                        }
                    }
                    None => varint::write_u64(&mut body, 0),
                }
                let _ = s;
            }
        }

        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&checksum(&body).to_le_bytes());
        varint::write_u64(&mut out, body.len() as u64);
        out.extend_from_slice(&body);
        out
    }

    /// Deserializes a catalog from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut input = bytes;
        if input.len() < 5 || &input[..4] != MAGIC {
            return Err(MdbError::Corrupt("bad catalog magic".into()));
        }
        if input[4] != VERSION {
            return Err(MdbError::Corrupt(format!(
                "unsupported catalog version {}",
                input[4]
            )));
        }
        input = &input[5..];
        if input.len() < 4 {
            return Err(truncated());
        }
        let expected = u32::from_le_bytes(input[..4].try_into().unwrap());
        input = &input[4..];
        let body_len = varint::read_u64(&mut input).ok_or_else(truncated)? as usize;
        if body_len > input.len() {
            return Err(truncated());
        }
        let body = &input[..body_len];
        if checksum(body) != expected {
            return Err(MdbError::Corrupt("catalog checksum mismatch".into()));
        }
        let mut input = body;

        let mut catalog = Catalog::new();
        let n_series = varint::read_u64(&mut input).ok_or_else(truncated)? as usize;
        for _ in 0..n_series {
            let tid = varint::read_u64(&mut input).ok_or_else(truncated)? as Tid;
            let si = varint::read_i64(&mut input).ok_or_else(truncated)?;
            if input.len() < 8 {
                return Err(truncated());
            }
            let scaling = f64::from_le_bytes(input[..8].try_into().unwrap());
            input = &input[8..];
            let gid = varint::read_u64(&mut input).ok_or_else(truncated)? as Gid;
            catalog.series.push(TimeSeriesMeta {
                tid,
                sampling_interval: si,
                scaling,
                gid,
            });
        }
        let n_groups = varint::read_u64(&mut input).ok_or_else(truncated)? as usize;
        for _ in 0..n_groups {
            let gid = varint::read_u64(&mut input).ok_or_else(truncated)? as Gid;
            let si = varint::read_i64(&mut input).ok_or_else(truncated)?;
            let n = varint::read_u64(&mut input).ok_or_else(truncated)? as usize;
            let mut tids = Vec::with_capacity(n);
            for _ in 0..n {
                tids.push(varint::read_u64(&mut input).ok_or_else(truncated)? as Tid);
            }
            catalog.groups.push(GroupMeta {
                gid,
                tids,
                sampling_interval: si,
            });
        }
        let n_models = varint::read_u64(&mut input).ok_or_else(truncated)? as usize;
        for _ in 0..n_models {
            catalog.model_names.push(read_str(&mut input)?);
        }
        let n_schemas = varint::read_u64(&mut input).ok_or_else(truncated)? as usize;
        for _ in 0..n_schemas {
            let name = read_str(&mut input)?;
            let n_levels = varint::read_u64(&mut input).ok_or_else(truncated)? as usize;
            let mut levels = Vec::with_capacity(n_levels);
            for _ in 0..n_levels {
                levels.push(read_str(&mut input)?);
            }
            catalog
                .dimensions
                .add_dimension(DimensionSchema::new(name, levels)?)?;
        }
        let n_paths = varint::read_u64(&mut input).ok_or_else(truncated)? as usize;
        for _ in 0..n_paths {
            let tid = varint::read_u64(&mut input).ok_or_else(truncated)? as Tid;
            for d in 0..n_schemas {
                let n = varint::read_u64(&mut input).ok_or_else(truncated)? as usize;
                if n == 0 {
                    continue;
                }
                let mut path = Vec::with_capacity(n);
                for _ in 0..n {
                    path.push(read_str(&mut input)?);
                }
                let refs: Vec<&str> = path.iter().map(String::as_str).collect();
                catalog.dimensions.set_members(tid, d, &refs)?;
            }
        }
        // Lookups binary-search both tables, so an out-of-order table would
        // silently hide entries.
        if !catalog.series.windows(2).all(|w| w[0].tid < w[1].tid) {
            return Err(MdbError::Corrupt("catalog series out of tid order".into()));
        }
        if !catalog.groups.windows(2).all(|w| w[0].gid < w[1].gid) {
            return Err(MdbError::Corrupt("catalog groups out of gid order".into()));
        }
        Ok(catalog)
    }

    /// Persists the catalog as `catalog.mdb` inside `dir`.
    pub fn save(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join("catalog.mdb.tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(tmp, dir.join("catalog.mdb"))?;
        Ok(())
    }

    /// Loads a catalog previously written by [`Catalog::save`].
    pub fn load(dir: &Path) -> Result<Self> {
        let bytes = std::fs::read(dir.join("catalog.mdb"))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        let loc = c
            .dimensions
            .add_dimension(
                DimensionSchema::new(
                    "Location",
                    vec!["Country".into(), "Park".into(), "Entity".into()],
                )
                .unwrap(),
            )
            .unwrap();
        c.dimensions
            .set_members(1, loc, &["Denmark", "Aalborg", "9632"])
            .unwrap();
        c.dimensions
            .set_members(2, loc, &["Denmark", "Aalborg", "9634"])
            .unwrap();
        c.dimensions
            .set_members(3, loc, &["Denmark", "Farsø", "9572"])
            .unwrap();
        c.series = vec![
            TimeSeriesMeta {
                tid: 1,
                sampling_interval: 60_000,
                scaling: 1.0,
                gid: 1,
            },
            TimeSeriesMeta {
                tid: 2,
                sampling_interval: 60_000,
                scaling: 4.75,
                gid: 1,
            },
            TimeSeriesMeta {
                tid: 3,
                sampling_interval: 60_000,
                scaling: 1.0,
                gid: 2,
            },
        ];
        c.groups = vec![
            GroupMeta {
                gid: 1,
                tids: vec![1, 2],
                sampling_interval: 60_000,
            },
            GroupMeta {
                gid: 2,
                tids: vec![3],
                sampling_interval: 60_000,
            },
        ];
        c.model_names = vec!["PMC-Mean".into(), "Swing".into(), "Gorilla".into()];
        c
    }

    #[test]
    fn lookups() {
        let c = sample();
        assert_eq!(c.gid_of(2), Some(1));
        assert_eq!(c.gid_of(9), None);
        assert_eq!(c.scaling_of(2), 4.75);
        assert_eq!(c.scaling_of(9), 1.0);
        assert_eq!(c.group(2).unwrap().tids, vec![3]);
        assert_eq!(c.tids(), vec![1, 2, 3]);
    }

    #[test]
    fn lookups_find_every_entry_of_a_large_catalog() {
        // 200 series in 50 groups of four, with gaps in both id spaces.
        let mut c = Catalog::new();
        for g in 0..50u32 {
            let gid = 3 * g + 1;
            let tids: Vec<Tid> = (0..4).map(|m| 10 * g + 2 * m + 5).collect();
            for &tid in &tids {
                c.series.push(TimeSeriesMeta {
                    tid,
                    sampling_interval: 100,
                    scaling: f64::from(tid),
                    gid,
                });
            }
            c.groups.push(GroupMeta {
                gid,
                tids,
                sampling_interval: 100,
            });
        }
        for meta in &c.series {
            assert_eq!(c.series_meta(meta.tid), Some(meta));
            assert_eq!(c.gid_of(meta.tid), Some(meta.gid));
            assert_eq!(c.scaling_of(meta.tid), meta.scaling);
            assert!(c.series_meta(meta.tid + 1).is_none());
        }
        for group in &c.groups {
            assert_eq!(c.group(group.gid), Some(group));
            assert!(c.group(group.gid + 1).is_none());
        }
        assert!(c.series_meta(0).is_none() && c.series_meta(Tid::MAX).is_none());
        assert!(c.group(0).is_none() && c.group(Gid::MAX).is_none());
    }

    #[test]
    fn out_of_order_tables_are_rejected_as_corrupt() {
        let mut series_swapped = sample();
        series_swapped.series.swap(0, 2);
        let mut groups_swapped = sample();
        groups_swapped.groups.swap(0, 1);
        let mut duplicate_tid = sample();
        duplicate_tid.series[1].tid = 1;
        for c in [series_swapped, groups_swapped, duplicate_tid] {
            assert!(matches!(
                Catalog::from_bytes(&c.to_bytes()),
                Err(MdbError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn tid_to_gid_rewriting_deduplicates() {
        let c = sample();
        assert_eq!(c.gids_for_tids(&[1, 2, 3]), vec![1, 2]);
        assert_eq!(c.gids_for_tids(&[2]), vec![1]);
        assert_eq!(c.gids_for_tids(&[42]), Vec::<Gid>::new());
    }

    #[test]
    fn member_to_gid_rewriting() {
        let c = sample();
        // Aalborg (level 2 of Location) covers tids 1,2 → gid 1.
        assert_eq!(c.gids_for_member(0, 2, "Aalborg"), vec![1]);
        assert_eq!(c.gids_for_member(0, 1, "Denmark"), vec![1, 2]);
        assert_eq!(c.gids_for_member(0, 2, "Nowhere"), Vec::<Gid>::new());
    }

    #[test]
    fn round_trips_through_bytes() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = Catalog::from_bytes(&bytes).unwrap();
        assert_eq!(back.series, c.series);
        assert_eq!(back.groups, c.groups);
        assert_eq!(back.model_names, c.model_names);
        assert_eq!(back.gids_for_member(0, 2, "Aalborg"), vec![1]);
        assert_eq!(back.dimensions.schemas().len(), 1);
        assert_eq!(back.dimensions.lca_level(&[1], &[2], 0), 2);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let c = sample();
        let mut bytes = c.to_bytes();
        assert!(Catalog::from_bytes(&bytes[..10]).is_err());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(
            Catalog::from_bytes(&bytes).is_err(),
            "checksum must catch the flip"
        );
        assert!(Catalog::from_bytes(b"JUNKJUNKJUNK").is_err());
    }

    #[test]
    fn save_and_load_from_disk() {
        let dir = mdb_testutil::TempDir::new("catalog-save-load");
        let c = sample();
        c.save(dir.path()).unwrap();
        let back = Catalog::load(dir.path()).unwrap();
        assert_eq!(back.series, c.series);
    }

    #[test]
    fn empty_catalog_round_trips() {
        let c = Catalog::new();
        let back = Catalog::from_bytes(&c.to_bytes()).unwrap();
        assert!(back.series.is_empty());
        assert!(back.groups.is_empty());
    }
}

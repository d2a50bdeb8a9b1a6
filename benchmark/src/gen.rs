//! The benchmark's inputs: a std-only seeded generator (splitmix64, scrambled
//! zipfian, hot-cold, uniform), the record codec, and the op stream.
//!
//! Nothing here depends on `crates/workload` or `vendor/rand`, so no later
//! change to the repo can alter the op stream; [`OpStream::fingerprint`] pins
//! it (see the table in `README.md`).

/// Keys are 8-byte big-endian indexes.
pub const KEY_LEN: usize = 8;
/// Values are 255 bytes: key index, version, then filler derived from both.
pub const VALUE_LEN: usize = 255;
/// Logical size of one record, the paper's synthetic 8 B + 255 B.
pub const RECORD_LEN: u64 = (KEY_LEN + VALUE_LEN) as u64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a 64-bit hash state.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// splitmix64: the whole benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` by multiply-shift (bias below 2^-40 for n < 2^24).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How key slots are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every slot equally likely.
    Uniform,
    /// The paper's "Skew 1%-99%": 1 % of the slots, spread evenly over the
    /// keyspace, receive 99 % of the draws.
    HotCold,
    /// YCSB's scrambled zipfian: rank drawn with exponent `theta`, then hashed
    /// so popular slots are scattered over the keyspace.
    Zipfian { theta: f64 },
}

/// A [`KeyDist`] bound to a slot count.
#[derive(Debug, Clone)]
pub struct KeyPicker {
    slots: u64,
    kind: PickerKind,
}

#[derive(Debug, Clone)]
enum PickerKind {
    Uniform,
    HotCold,
    /// `zeta2` and `zetan` are the zeta sums over 2 and over all slots.
    Zipfian {
        zeta2: f64,
        zetan: f64,
        alpha: f64,
        eta: f64,
    },
}

/// One slot in a hundred is hot, and 99 draws in a hundred go to a hot slot.
const HOT_STRIDE: u64 = 100;
const HOT_DRAWS_PER_100: u64 = 99;

impl KeyPicker {
    pub fn new(dist: KeyDist, slots: u64) -> Self {
        assert!(
            slots > 0 && slots.is_multiple_of(HOT_STRIDE),
            "slots must be a multiple of {HOT_STRIDE}"
        );
        let kind = match dist {
            KeyDist::Uniform => PickerKind::Uniform,
            KeyDist::HotCold => PickerKind::HotCold,
            KeyDist::Zipfian { theta } => {
                // Gray et al.'s closed form, as in YCSB's ZipfianGenerator.
                let zetan: f64 = (1..=slots).map(|i| 1.0 / (i as f64).powf(theta)).sum();
                let zeta2 = 1.0 + 0.5f64.powf(theta);
                let eta = (1.0 - (2.0 / slots as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                PickerKind::Zipfian { zeta2, zetan, alpha: 1.0 / (1.0 - theta), eta }
            }
        };
        KeyPicker { slots, kind }
    }

    pub fn pick(&self, rng: &mut SplitMix64) -> u64 {
        match self.kind {
            PickerKind::Uniform => rng.below(self.slots),
            PickerKind::HotCold => {
                let hot = self.slots / HOT_STRIDE;
                if rng.below(100) < HOT_DRAWS_PER_100 {
                    rng.below(hot) * HOT_STRIDE
                } else {
                    // The j-th slot that is not a multiple of the stride.
                    let j = rng.below(self.slots - hot);
                    j + j / (HOT_STRIDE - 1) + 1
                }
            }
            PickerKind::Zipfian { zeta2, zetan, alpha, eta } => {
                let u = rng.unit();
                let uz = u * zetan;
                let rank = if uz < 1.0 {
                    0
                } else if uz < zeta2 {
                    1
                } else {
                    ((self.slots as f64) * (eta * u - eta + 1.0).powf(alpha)) as u64
                };
                fnv1a(FNV_OFFSET, &rank.min(self.slots - 1).to_le_bytes()) % self.slots
            }
        }
    }

    /// Whether `slot` belongs to the hot set (hot-cold only).
    #[cfg(test)]
    pub fn is_hot(&self, slot: u64) -> bool {
        matches!(self.kind, PickerKind::HotCold) && slot.is_multiple_of(HOT_STRIDE)
    }
}

/// One operation: a read (get or scan start, per workload) or a put of `key`.
/// Packed into a word, because a run holds millions of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u64);

impl Op {
    const WRITE: u64 = 1 << 63;

    fn new(write: bool, key: u64) -> Op {
        Op(key | if write { Op::WRITE } else { 0 })
    }

    pub fn is_write(self) -> bool {
        self.0 & Op::WRITE != 0
    }

    pub fn key(self) -> u64 {
        self.0 & !Op::WRITE
    }
}

/// What [`OpStream::generate`] needs to know about a workload.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Keys in the database; a multiple of the client count.
    pub keys: u64,
    /// Reads per hundred ops, exactly: every block of 100 consecutive ops of
    /// a client holds this many reads, at shuffled positions, so the mix (and
    /// with it the work of a run) does not vary with the seed.
    pub read_percent: usize,
    pub read_dist: KeyDist,
    pub write_dist: KeyDist,
    /// Ops per client.
    pub ops_per_client: usize,
}

/// The op streams of every client of one run.
///
/// The keyspace is striped over the clients: client `c` *writes* only keys
/// `slot * clients + c`, so every key has one writer and the version a key must
/// hold at any moment is known exactly; reads draw a slot and then an owner,
/// so they cover every client's keys.
#[derive(Debug)]
pub struct OpStream {
    pub clients: Vec<Vec<Op>>,
}

impl OpStream {
    pub fn generate(spec: &StreamSpec, clients: u64, seed: u64) -> OpStream {
        assert!(spec.keys.is_multiple_of(clients), "keys must divide evenly among clients");
        let slots = spec.keys / clients;
        let read_picker = KeyPicker::new(spec.read_dist, slots);
        let write_picker = KeyPicker::new(spec.write_dist, slots);
        let clients = (0..clients)
            .map(|client| {
                let mut rng = SplitMix64::new(mix(seed ^ mix(client + 1)));
                let mut reads = [false; 100];
                (0..spec.ops_per_client)
                    .map(|i| {
                        if i % 100 == 0 {
                            reads = std::array::from_fn(|j| j < spec.read_percent);
                            for j in (1..100).rev() {
                                reads.swap(j, rng.below(j as u64 + 1) as usize);
                            }
                        }
                        if reads[i % 100] {
                            let slot = read_picker.pick(&mut rng);
                            Op::new(false, slot * clients + rng.below(clients))
                        } else {
                            let slot = write_picker.pick(&mut rng);
                            Op::new(true, slot * clients + client)
                        }
                    })
                    .collect()
            })
            .collect();
        OpStream { clients }
    }

    /// FNV-1a over every op of every client, in client order.
    pub fn fingerprint(&self) -> u64 {
        self.clients.iter().flatten().fold(FNV_OFFSET, |hash, op| fnv1a(hash, &op.0.to_le_bytes()))
    }
}

pub fn encode_key(index: u64) -> [u8; KEY_LEN] {
    index.to_be_bytes()
}

pub fn decode_key(key: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(key.try_into().ok()?))
}

/// Writes the value of `(key, version)` into `buf`: both numbers big-endian,
/// then filler that only that pair produces, so a value that lost or mixed
/// bytes cannot pass [`check_value`].
pub fn fill_value(buf: &mut [u8; VALUE_LEN], key: u64, version: u64) {
    buf[..8].copy_from_slice(&key.to_be_bytes());
    buf[8..16].copy_from_slice(&version.to_be_bytes());
    let mut rng = SplitMix64::new(mix(key) ^ version);
    for chunk in buf[16..].chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
}

/// Why a value read back from the store was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueFault {
    Length,
    Key,
    Filler,
}

/// Checks that `value` is the value of `key` at some version; returns it.
pub fn check_value(value: &[u8], key: u64) -> Result<u64, ValueFault> {
    if value.len() != VALUE_LEN {
        return Err(ValueFault::Length);
    }
    if value[..8] != key.to_be_bytes() {
        return Err(ValueFault::Key);
    }
    let version = u64::from_be_bytes(value[8..16].try_into().expect("8 bytes"));
    let mut expected = [0u8; VALUE_LEN];
    fill_value(&mut expected, key, version);
    if value != expected {
        return Err(ValueFault::Filler);
    }
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(read_dist: KeyDist, write_dist: KeyDist) -> StreamSpec {
        StreamSpec { keys: 20_000, read_percent: 50, read_dist, write_dist, ops_per_client: 5_000 }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for dist in [KeyDist::Uniform, KeyDist::HotCold, KeyDist::Zipfian { theta: 0.99 }] {
            let a = OpStream::generate(&spec(dist, dist), 2, 7);
            let b = OpStream::generate(&spec(dist, dist), 2, 7);
            let c = OpStream::generate(&spec(dist, dist), 2, 8);
            assert_eq!(a.clients, b.clients);
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_ne!(a.fingerprint(), c.fingerprint());
        }
    }

    #[test]
    fn each_client_writes_only_its_own_keys() {
        let stream = OpStream::generate(&spec(KeyDist::Uniform, KeyDist::HotCold), 2, 1);
        for (client, ops) in stream.clients.iter().enumerate() {
            assert!(ops.iter().all(|op| op.key() < 20_000));
            assert!(ops.iter().filter(|op| op.is_write()).all(|op| op.key() % 2 == client as u64));
            assert!(ops.iter().any(|op| !op.is_write() && op.key() % 2 != client as u64));
        }
    }

    #[test]
    fn every_block_of_100_ops_holds_the_exact_mix() {
        let mut spec = spec(KeyDist::Uniform, KeyDist::Uniform);
        spec.read_percent = 95;
        let stream = OpStream::generate(&spec, 2, 11);
        for ops in &stream.clients {
            for block in ops.chunks(100) {
                assert_eq!(block.iter().filter(|op| !op.is_write()).count(), 95);
            }
            assert!(ops[..100]
                .iter()
                .zip(&ops[100..200])
                .any(|(a, b)| a.is_write() != b.is_write()));
        }
    }

    #[test]
    fn hot_cold_sends_99_percent_to_1_percent() {
        let picker = KeyPicker::new(KeyDist::HotCold, 10_000);
        let mut rng = SplitMix64::new(3);
        let draws = 200_000;
        let mut hot = 0;
        for _ in 0..draws {
            let slot = picker.pick(&mut rng);
            assert!(slot < 10_000);
            hot += u64::from(picker.is_hot(slot));
        }
        let share = hot as f64 / draws as f64;
        assert!((share - 0.99).abs() < 0.002, "hot share {share}");
    }

    #[test]
    fn cold_draws_never_land_on_a_hot_slot() {
        let picker = KeyPicker::new(KeyDist::HotCold, 1_000);
        // The mapping j -> j + j/(stride-1) + 1 skips every multiple of stride.
        for j in 0..990u64 {
            let slot = j + j / (HOT_STRIDE - 1) + 1;
            assert!(slot < 1_000 && !picker.is_hot(slot), "j={j} slot={slot}");
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let picker = KeyPicker::new(KeyDist::Zipfian { theta: 0.99 }, 10_000);
        let mut rng = SplitMix64::new(5);
        let mut counts = vec![0u32; 10_000];
        for _ in 0..200_000 {
            counts[picker.pick(&mut rng) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_1_percent: u32 = counts[..100].iter().sum();
        assert!(top_1_percent > 80_000, "top 1 % of slots drew {top_1_percent} of 200000");
    }

    #[test]
    fn values_round_trip_and_corruption_is_caught() {
        let mut value = [0u8; VALUE_LEN];
        fill_value(&mut value, 42, 7);
        assert_eq!(check_value(&value, 42), Ok(7));
        assert_eq!(check_value(&value, 43), Err(ValueFault::Key));
        assert_eq!(check_value(&value[..200], 42), Err(ValueFault::Length));
        value[100] ^= 1;
        assert_eq!(check_value(&value, 42), Err(ValueFault::Filler));
    }
}

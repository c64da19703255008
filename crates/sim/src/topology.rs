//! Machine topology: cores, sockets, and NUMA nodes.
//!
//! The paper evaluates on two machines: an 8-core single-socket Intel
//! i7-9700 and an 80-core two-socket Intel Xeon Gold 6138. Both are modelled
//! here as explicit topologies so schedulers can make NUMA-aware decisions.

/// Identifier of a logical CPU (core).
pub type CpuId = usize;

/// A set of CPUs, used for task affinity masks.
///
/// Backed by a 128-bit mask, which covers both evaluation machines.
///
/// # Examples
///
/// ```
/// use enoki_sim::topology::CpuSet;
/// let mut set = CpuSet::empty();
/// set.add(3);
/// assert!(set.contains(3));
/// assert!(!set.contains(4));
/// assert_eq!(CpuSet::all(8).count(), 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuSet(u128);

impl CpuSet {
    /// The empty set.
    pub const fn empty() -> CpuSet {
        CpuSet(0)
    }

    /// A set containing cpus `0..n`.
    pub fn all(n: usize) -> CpuSet {
        assert!(n <= 128, "CpuSet supports at most 128 cpus");
        if n == 128 {
            CpuSet(u128::MAX)
        } else {
            CpuSet((1u128 << n) - 1)
        }
    }

    /// A set from a raw 128-bit mask (bit `i` = cpu `i`).
    pub const fn from_mask(mask: u128) -> CpuSet {
        CpuSet(mask)
    }

    /// The raw 128-bit mask.
    pub const fn mask(&self) -> u128 {
        self.0
    }

    /// A set containing exactly one cpu.
    pub fn single(cpu: CpuId) -> CpuSet {
        let mut s = CpuSet::empty();
        s.add(cpu);
        s
    }

    /// Adds a cpu to the set.
    pub fn add(&mut self, cpu: CpuId) {
        assert!(cpu < 128);
        self.0 |= 1u128 << cpu;
    }

    /// Removes a cpu from the set.
    pub fn remove(&mut self, cpu: CpuId) {
        assert!(cpu < 128);
        self.0 &= !(1u128 << cpu);
    }

    /// Whether the set contains `cpu`.
    pub fn contains(&self, cpu: CpuId) -> bool {
        cpu < 128 && self.0 & (1u128 << cpu) != 0
    }

    /// Number of cpus in the set.
    pub fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the cpus in the set in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CpuId> + '_ {
        (0..128).filter(move |&c| self.contains(c))
    }

    /// Set intersection.
    pub fn and(&self, other: &CpuSet) -> CpuSet {
        CpuSet(self.0 & other.0)
    }
}

impl FromIterator<CpuId> for CpuSet {
    fn from_iter<I: IntoIterator<Item = CpuId>>(iter: I) -> CpuSet {
        let mut s = CpuSet::empty();
        for cpu in iter {
            s.add(cpu);
        }
        s
    }
}

/// Description of the simulated machine's core layout.
#[derive(Clone, Debug)]
pub struct Topology {
    /// NUMA node of each cpu, indexed by cpu id.
    node_of: Vec<usize>,
    /// Number of NUMA nodes.
    nr_nodes: usize,
}

impl Topology {
    /// Builds a topology with `nr_cpus` cpus spread evenly over `nr_nodes`
    /// NUMA nodes (cpus are striped in contiguous blocks, like Linux's
    /// default enumeration on multi-socket Intel machines).
    pub fn new(nr_cpus: usize, nr_nodes: usize) -> Topology {
        assert!(nr_cpus > 0 && nr_nodes > 0 && nr_cpus.is_multiple_of(nr_nodes));
        assert!(nr_cpus <= 128, "at most 128 cpus are supported");
        let per_node = nr_cpus / nr_nodes;
        let node_of = (0..nr_cpus).map(|c| c / per_node).collect();
        Topology { node_of, nr_nodes }
    }

    /// The 8-core, one-socket Intel i7-9700 machine from the paper.
    pub fn i7_9700() -> Topology {
        Topology::new(8, 1)
    }

    /// The 80-core, two-socket Intel Xeon Gold 6138 machine from the paper.
    pub fn xeon_6138_2s() -> Topology {
        Topology::new(80, 2)
    }

    /// Number of cpus.
    pub fn nr_cpus(&self) -> usize {
        self.node_of.len()
    }

    /// Number of NUMA nodes.
    pub fn nr_nodes(&self) -> usize {
        self.nr_nodes
    }

    /// NUMA node of a cpu.
    pub fn node_of(&self, cpu: CpuId) -> usize {
        self.node_of[cpu]
    }

    /// Whether two cpus share a NUMA node.
    pub fn same_node(&self, a: CpuId, b: CpuId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The cpus belonging to a NUMA node (empty for a node that does not
    /// exist). Nodes are contiguous blocks of cpus (see [`Topology::new`]),
    /// so this is one shifted mask.
    pub fn cpus_of_node(&self, node: usize) -> CpuSet {
        if node >= self.nr_nodes {
            return CpuSet::empty();
        }
        let per_node = self.nr_cpus() / self.nr_nodes;
        CpuSet::from_mask(CpuSet::all(per_node).mask() << (node * per_node))
    }

    /// All cpus of the machine.
    pub fn all_cpus(&self) -> CpuSet {
        CpuSet::all(self.nr_cpus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuset_basics() {
        let mut s = CpuSet::empty();
        assert!(s.is_empty());
        s.add(0);
        s.add(127);
        assert!(s.contains(0) && s.contains(127) && !s.contains(64));
        assert_eq!(s.count(), 2);
        s.remove(0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![127]);
    }

    #[test]
    fn cpuset_all_and_intersection() {
        let a = CpuSet::all(8);
        let b = CpuSet::from_iter([4, 5, 6, 7, 8, 9]);
        let i = a.and(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        assert_eq!(CpuSet::all(128).count(), 128);
    }

    #[test]
    fn i7_topology() {
        let t = Topology::i7_9700();
        assert_eq!(t.nr_cpus(), 8);
        assert_eq!(t.nr_nodes(), 1);
        assert!(t.same_node(0, 7));
    }

    #[test]
    fn xeon_topology() {
        let t = Topology::xeon_6138_2s();
        assert_eq!(t.nr_cpus(), 80);
        assert_eq!(t.nr_nodes(), 2);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(79), 1);
        assert!(t.same_node(0, 39));
        assert!(!t.same_node(39, 40));
        assert_eq!(t.cpus_of_node(0).count(), 40);
    }

    #[test]
    fn cpus_of_node_matches_node_of() {
        for t in [
            Topology::i7_9700(),
            Topology::xeon_6138_2s(),
            Topology::new(8, 4),
        ] {
            for node in 0..t.nr_nodes() {
                let filtered =
                    CpuSet::from_iter((0..t.nr_cpus()).filter(|&c| t.node_of(c) == node));
                assert_eq!(t.cpus_of_node(node), filtered, "node {node} of {t:?}");
            }
            assert_eq!(t.cpus_of_node(t.nr_nodes()), CpuSet::empty());
        }
        assert_eq!(Topology::new(128, 1).cpus_of_node(0), CpuSet::all(128));
    }

    #[test]
    #[should_panic]
    fn uneven_nodes_rejected() {
        let _ = Topology::new(9, 2);
    }
}

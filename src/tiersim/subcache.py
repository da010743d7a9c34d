"""Sub-page block cache: the reserved zone of fast memory, managed as a
4-way set-associative cache of page blocks with tree pseudo-LRU replacement
and dirty writeback.

The storage is flat, like the zone it models. Line `(set, way)` is line
number `set * ways + way`; its data is the block at `line * block_bytes`
in one `zone` bytearray, its tag is that entry of an `array('Q')`, and its
valid and dirty flags are one byte each in two bytearrays. Each set keeps
its 3 pLRU bits in one byte of a fourth. Beside these, a `resident` dict
maps the block id of every valid line to its way. A lookup, hit or miss,
is one probe of it; the flags are searched only to find a free way on
insert.
"""

from __future__ import annotations

from array import array

# The 3-bit tree for 4 ways: bit 0 is the root (set: the right pair is
# older), bit 1 the left pair (set: way 1 is older), bit 2 the right pair
# (set: way 3 is older). A touch of way w points every node on its path
# away from it: plru & _KEEP[w] | _SET[w].
_KEEP = (0b111, 0b101, 0b110, 0b010)
_SET = (0b011, 0b001, 0b100, 0b000)
# The way each tree state names as the oldest.
_VICTIM = bytes((3 if p & 0b100 else 2) if p & 0b001 else (1 if p & 0b010 else 0)
                for p in range(8))


class BlockCache:
    """Cache of block-sized copies of slow-tier data, indexed by host block id.

    Host block ids are stable across page swaps, so a resident block can
    always be matched back to its owning page even after that page has been
    relocated (which is what proactive recycling checks for).
    """

    def __init__(self, sets: int, ways: int, block_bytes: int):
        assert ways == 4, "tree pLRU below is the 3-bit, 4-way variant"
        self.nsets = sets
        self.ways = ways
        self.block_bytes = block_bytes
        self.set_mask = sets - 1
        lines = sets * ways
        self.zone = bytearray(lines * block_bytes)
        self.tags = array("Q", [0]) * lines
        self.valid = bytearray(lines)
        self.dirty = bytearray(lines)
        self.plru = bytearray(sets)
        self.resident = {}  # block id -> way, for every valid line

    @property
    def valid_count(self) -> int:
        return len(self.resident)

    def line_of(self, block_id: int, way: int) -> int:
        """The line number of `way` in the set of `block_id`."""
        return (block_id & self.set_mask) * self.ways + way

    # Operations ----------------------------------------------------------

    def lookup(self, block_id: int):
        """Return the hit way index, or None. Hits refresh the pLRU tree."""
        way = self.resident.get(block_id)
        if way is not None:
            plru = self.plru
            idx = block_id & self.set_mask
            plru[idx] = plru[idx] & _KEEP[way] | _SET[way]
        return way

    def peek(self, block_id: int):
        """The resident way, or None; leaves the pLRU tree as it is."""
        return self.resident.get(block_id)

    def insert(self, block_id: int, data: bytes):
        """Insert a clean copy. Returns the evicted (block_id, dirty, data)
        descriptor when a valid victim was displaced, else None."""
        idx = block_id & self.set_mask
        first = idx * self.ways
        line = self.valid.find(0, first, first + self.ways)
        victim = None
        if line < 0:
            line = first + _VICTIM[self.plru[idx]]
            start = line * self.block_bytes
            tag = self.tags[line]
            victim = (tag, bool(self.dirty[line]),
                      bytes(self.zone[start:start + self.block_bytes]))
            del self.resident[tag]
        way = line - first
        self.tags[line] = block_id
        self.valid[line] = 1
        self.dirty[line] = 0
        start = line * self.block_bytes
        self.zone[start:start + self.block_bytes] = data
        self.resident[block_id] = way
        self.plru[idx] = self.plru[idx] & _KEEP[way] | _SET[way]
        return victim

    def line_offset(self, block_id: int, way: int, write: bool = False) -> int:
        """Where the resident line's data starts in `zone`; the line is
        marked dirty when it is about to be written."""
        line = (block_id & self.set_mask) * self.ways + way
        if write:
            self.dirty[line] = 1
        return line * self.block_bytes

    def invalidate(self, block_id: int, way: int):
        """Drop a resident block, returning (dirty, data) for merging."""
        line = self.line_of(block_id, way)
        assert self.valid[line] and self.tags[line] == block_id
        self.valid[line] = 0
        del self.resident[block_id]
        start = line * self.block_bytes
        return bool(self.dirty[line]), bytes(self.zone[start:start + self.block_bytes])

"""Sub-page block cache: the reserved zone of fast memory, managed as a
4-way set-associative cache of page blocks with tree pseudo-LRU replacement
and dirty writeback."""

from __future__ import annotations


class CacheSet:
    __slots__ = ("tags", "valid", "dirty", "data", "plru")

    def __init__(self, ways: int, block_bytes: int):
        self.tags = [0] * ways
        self.valid = [False] * ways
        self.dirty = [False] * ways
        self.data = [bytearray(block_bytes) for _ in range(ways)]
        self.plru = 0  # 3 bits for 4 ways: bit0 root, bit1 left pair, bit2 right pair


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
        self.sets = [CacheSet(ways, block_bytes) for _ in range(sets)]
        self.valid_count = 0

    def _set_for(self, block_id: int) -> CacheSet:
        return self.sets[block_id & (self.nsets - 1)]

    # pLRU helpers ------------------------------------------------------

    @staticmethod
    def _touch_plru(s: CacheSet, way: int):
        # Point every tree node away from the touched way.
        if way < 2:
            s.plru |= 0b001               # root -> right half is older
            s.plru = (s.plru | 0b010) if way == 0 else (s.plru & ~0b010)
        else:
            s.plru &= ~0b001              # root -> left half is older
            s.plru = (s.plru | 0b100) if way == 2 else (s.plru & ~0b100)

    @staticmethod
    def _plru_victim(s: CacheSet) -> int:
        if s.plru & 0b001:                # right half older
            return 3 if s.plru & 0b100 else 2
        return 1 if s.plru & 0b010 else 0

    # Operations ----------------------------------------------------------

    def lookup(self, block_id: int):
        """Return the hit way index, or None. Hits refresh the pLRU tree."""
        s = self._set_for(block_id)
        for way in range(self.ways):
            if s.valid[way] and s.tags[way] == block_id:
                self._touch_plru(s, way)
                return way
        return None

    def peek(self, block_id: int):
        s = self._set_for(block_id)
        for way in range(self.ways):
            if s.valid[way] and s.tags[way] == block_id:
                return way
        return None

    def insert(self, block_id: int, data: bytes):
        """Insert a clean copy. Returns the evicted (block_id, dirty, data)
        descriptor when a valid victim was displaced, else None."""
        s = self._set_for(block_id)
        victim = None
        way = None
        for w in range(self.ways):
            if not s.valid[w]:
                way = w
                break
        if way is None:
            way = self._plru_victim(s)
            victim = (s.tags[way], s.dirty[way], bytes(s.data[way]))
            self.valid_count -= 1
        s.tags[way] = block_id
        s.valid[way] = True
        s.dirty[way] = False
        s.data[way][:] = data
        self.valid_count += 1
        self._touch_plru(s, way)
        return victim

    def line(self, block_id: int, way: int, write: bool = False) -> bytearray:
        """The resident line's data, marked dirty when it is about to be
        written."""
        s = self._set_for(block_id)
        if write:
            s.dirty[way] = True
        return s.data[way]

    def invalidate(self, block_id: int, way: int):
        """Drop a resident block, returning (dirty, data) for merging."""
        s = self._set_for(block_id)
        assert s.valid[way] and s.tags[way] == block_id
        s.valid[way] = False
        self.valid_count -= 1
        return s.dirty[way], bytes(s.data[way])

    def dump(self) -> str:
        lines = ["set way tag valid dirty plru"]
        for idx, s in enumerate(self.sets):
            for way in range(self.ways):
                lines.append(f"{idx} {way} {s.tags[way]} {int(s.valid[way])} "
                             f"{int(s.dirty[way])} {s.plru:03b}")
        return "\n".join(lines)

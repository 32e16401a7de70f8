#include "hierarchy.hh"

namespace chex
{

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg_in)
    : cfg(cfg_in),
      _l1i("l1i", cfg.l1Sets, cfg.l1Ways),
      _l1d("l1d", cfg.l1Sets, cfg.l1Ways),
      _l2("l2", cfg.l2Sets, cfg.l2Ways)
{
}

unsigned
MemoryHierarchy::dataAccess(uint64_t addr, bool is_write)
{
    uint64_t line = lineOf(addr);
    if (_l1d.access(line))
        return cfg.l1Latency;
    if (_l2.access(line)) {
        _l1d.insert(line);
        return cfg.l1Latency + cfg.l2Latency;
    }
    // Line fill from DRAM; writebacks are folded into write traffic.
    _l2.insert(line);
    _l1d.insert(line);
    meter.bytesRead += cfg.lineBytes;
    if (is_write)
        meter.bytesWritten += cfg.lineBytes;
    return cfg.l1Latency + cfg.l2Latency + cfg.dramLatency;
}

unsigned
MemoryHierarchy::fetchAccess(uint64_t addr)
{
    uint64_t line = lineOf(addr);
    // Next-line prefetch: fetch units stream sequential lines ahead,
    // so straight-line code only pays the first cold miss.
    uint64_t next = line + 1;
    if (!_l1i.probe(next)) {
        if (!_l2.probe(next)) {
            _l2.insert(next);
            meter.bytesRead += cfg.lineBytes;
        }
        _l1i.insert(next);
    }
    if (_l1i.access(line))
        return cfg.l1Latency;
    if (_l2.access(line)) {
        _l1i.insert(line);
        return cfg.l1Latency + cfg.l2Latency;
    }
    _l2.insert(line);
    _l1i.insert(line);
    meter.bytesRead += cfg.lineBytes;
    return cfg.l1Latency + cfg.l2Latency + cfg.dramLatency;
}

template <class Self, class F>
void
MemoryHierarchy::fields(Self &self, F &f)
{
    f("l1i", self._l1i);
    f("l1d", self._l1d);
    f("l2", self._l2);
    f("bytesRead", self.meter.bytesRead);
    f("bytesWritten", self.meter.bytesWritten);
}

CHEX_JSON_FIELDS(MemoryHierarchy);

unsigned
MemoryHierarchy::shadowAccess(uint64_t addr)
{
    uint64_t line = lineOf(addr);
    if (_l2.access(line))
        return cfg.l2Latency;
    _l2.insert(line);
    meter.bytesRead += cfg.lineBytes;
    return cfg.l2Latency + cfg.dramLatency;
}

} // namespace chex

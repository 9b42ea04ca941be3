#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <map>

namespace qbench {

void RunReport::error(const std::string& what) {
  // Keep the first few messages; the count is what matters after that.
  if (errors.size() < 8) errors.push_back(what);
  else if (errors.size() == 8) errors.push_back("(further errors omitted)");
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

void Fnv1a::add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

long long SpanBuffer::add(const char* name, long long parent, long long t0,
                          long long t1, int tid, Kind kind) {
  const auto id = static_cast<long long>(spans_.size()) + 1;
  spans_.push_back(Span{name, id, parent, t0, t1, tid, kind});
  return id;
}

bool SpanBuffer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  long long origin = spans_.empty() ? 0 : spans_.front().t0;
  for (const Span& s : spans_) origin = std::min(origin, s.t0);
  auto us = [origin](long long t) {
    return static_cast<double>(t - origin) / 1e3;
  };
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  auto sep = [&] {
    std::fputs(first ? "" : ",\n", f);
    first = false;
  };
  for (const Span& s : spans_) {
    switch (s.kind) {
      case Kind::kComplete:
        sep();
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                     "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": "
                     "{\"id\": %lld, \"parent\": %lld}}",
                     s.name, us(s.t0), us(s.t1) - us(s.t0), s.tid, s.id,
                     s.parent);
        break;
      case Kind::kAsync:
        sep();
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"b\", "
                     "\"id\": %lld, \"ts\": %.3f, \"pid\": 1, \"tid\": %d, "
                     "\"args\": {\"parent\": %lld}},\n"
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"e\", "
                     "\"id\": %lld, \"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
                     s.name, s.name, s.id, us(s.t0), s.tid, s.parent,
                     s.name, s.name, s.id, us(s.t1), s.tid);
        break;
      case Kind::kInstant: {
        // Async instants attach to their parent's async track.
        const Span& p = spans_[static_cast<std::size_t>(s.parent - 1)];
        sep();
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"n\", "
                     "\"id\": %lld, \"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
                     s.name, p.name, s.parent, us(s.t0), s.tid);
        break;
      }
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void SpanBuffer::print_self_times(std::FILE* out) const {
  // Children's intervals per parent; instants have no duration.
  std::vector<std::vector<std::pair<long long, long long>>> kids(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent > 0 && s.kind != Kind::kInstant)
      kids[static_cast<std::size_t>(s.parent - 1)].emplace_back(s.t0, s.t1);

  struct Total {
    long long count = 0;
    double total_ms = 0.0, self_ms = 0.0;
  };
  std::map<std::string, Total> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.kind == Kind::kInstant) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    long long covered = 0, cur0 = 0, cur1 = 0;
    bool open = false;
    for (const auto& [a0, a1] : iv) {
      const long long c0 = std::max(a0, s.t0), c1 = std::min(a1, s.t1);
      if (c1 <= c0) continue;
      if (open && c0 <= cur1) {
        cur1 = std::max(cur1, c1);
        continue;
      }
      if (open) covered += cur1 - cur0;
      cur0 = c0;
      cur1 = c1;
      open = true;
    }
    if (open) covered += cur1 - cur0;
    Total& t = by_name[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(s.t1 - s.t0) / 1e6;
    t.self_ms += static_cast<double>(s.t1 - s.t0 - covered) / 1e6;
  }
  std::vector<std::pair<std::string, Total>> rows(by_name.begin(),
                                                  by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::fprintf(out, "# %-32s %8s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, t] : rows)
    std::fprintf(out, "# %-32s %8lld %12.3f %12.3f\n", name.c_str(), t.count,
                 t.total_ms, t.self_ms);
}

}  // namespace qbench

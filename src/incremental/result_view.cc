#include "incremental/result_view.h"

#include <algorithm>
#include <cstring>

#include "storage/text_io.h"

namespace deepdive::incremental {

const std::vector<std::pair<Tuple, double>>* ResultView::Relation(
    const std::string& relation) const {
  const auto it = relations.find(relation);
  return it == relations.end() ? nullptr : &it->second;
}

double ResultView::MarginalOf(const std::string& relation,
                              const Tuple& tuple) const {
  const auto* entries = Relation(relation);
  if (entries == nullptr) return 0.5;
  const auto it = std::lower_bound(
      entries->begin(), entries->end(), tuple,
      [](const std::pair<Tuple, double>& entry, const Tuple& t) {
        return entry.first < t;
      });
  if (it == entries->end() || it->first != tuple) return 0.5;
  return it->second;
}

const std::pair<Tuple, double>* ResultView::FindTsv(const std::string& relation,
                                                    const std::string& tsv) const {
  const auto* entries = Relation(relation);
  if (entries == nullptr) return nullptr;
  const auto scan = [&]() -> const std::pair<Tuple, double>* {
    for (const auto& entry : *entries) {
      const auto line = FormatTsvLine(entry.first);
      if (line.ok() && *line == tsv) return &entry;
    }
    return nullptr;
  };
  const auto index = static_cast<size_t>(
      std::find(query_relations.begin(), query_relations.end(), relation) -
      query_relations.begin());
  if (index >= query_schemas.size()) return scan();  // no schema to parse with
  const Schema& schema = query_schemas[index];
  for (const Column& column : schema.columns()) {
    if (column.type == ValueType::kDouble) return scan();
  }
  // Every rendering of a tuple of this schema parses back to it.
  auto tuple = ParseTsvLine(schema, tsv);
  if (!tuple.ok()) return nullptr;
  for (size_t i = 0; i < tuple->size(); ++i) {
    if ((*tuple)[i].is_null() && schema.column(i).type == ValueType::kString) return scan();
  }
  const auto rendered = FormatTsvLine(*tuple);
  if (!rendered.ok() || *rendered != tsv) return nullptr;  // e.g. 007 or t
  const auto it = std::lower_bound(
      entries->begin(), entries->end(), *tuple,
      [](const std::pair<Tuple, double>& entry, const Tuple& t) { return entry.first < t; });
  return it != entries->end() && it->first == *tuple ? &*it : nullptr;
}

uint64_t ResultView::Fingerprint() const {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  mix(epoch);
  mix(marginals.size());
  for (const double m : marginals) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(m));
    std::memcpy(&bits, &m, sizeof(bits));
    mix(bits);
  }
  return h;
}

ResultPublisher::ResultPublisher() {
  auto initial = std::make_shared<ResultView>();
  initial->content_hash = initial->Fingerprint();
  // ordering: release — the constructing thread may hand the publisher to
  // readers through some other channel; the release pairs with Current()'s
  // acquire load so the epoch-0 view's fields travel with the pointer.
  slot_.store(std::shared_ptr<const ResultView>(std::move(initial)),
              std::memory_order_release);
}

uint64_t ResultPublisher::Publish(std::shared_ptr<ResultView> view) {
  view->epoch = ++last_epoch_;
  view->content_hash = view->Fingerprint();
  // ordering: release — publishes the fully-built view; pairs with the
  // acquire load in Current() so readers never observe a half-written view.
  slot_.store(std::shared_ptr<const ResultView>(std::move(view)),
              std::memory_order_release);
  {
    MutexLock lock(wait_mu_);
    published_epoch_ = last_epoch_;
  }
  published_cv_.NotifyAll();
  return last_epoch_;
}

void ResultPublisher::WaitForEpoch(uint64_t min_epoch) const {
  MutexLock lock(wait_mu_);
  while (published_epoch_ < min_epoch) published_cv_.Wait(wait_mu_);
}

Status WriteRelationTsv(const ResultView& view, const std::string& relation,
                        std::FILE* out, double threshold) {
  const auto* entries = view.Relation(relation);
  if (entries == nullptr) return Status::OK();
  for (const auto& [tuple, marginal] : *entries) {
    if (marginal < threshold) continue;
    auto line = FormatMarginalLine(marginal, tuple);
    if (!line.ok()) continue;  // unprintable tuple: same skip as FormatTsvLine
    std::fprintf(out, "%s\n", line->c_str());
  }
  return Status::OK();
}

}  // namespace deepdive::incremental

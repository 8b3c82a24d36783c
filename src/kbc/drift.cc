#include "kbc/drift.h"

#include <cmath>

#include "factor/compiled_graph.h"
#include "inference/gibbs.h"
#include "inference/world.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace deepdive::kbc {

using factor::VarId;

std::vector<DriftDocument> GenerateDriftStream(const DriftOptions& options) {
  Rng rng(options.seed);
  // Token polarity: +1 tokens appear in spam, -1 in ham; 0 neutral.
  std::vector<int> polarity(options.vocab_size, 0);
  for (size_t t = 0; t < options.vocab_size; ++t) {
    const double r = rng.Uniform();
    polarity[t] = r < 0.4 ? +1 : (r < 0.8 ? -1 : 0);
  }
  std::vector<int> polarity2(options.new_vocab_size, 0);
  for (size_t t = 0; t < options.new_vocab_size; ++t) {
    const double r = rng.Uniform();
    polarity2[t] = r < 0.4 ? +1 : (r < 0.8 ? -1 : 0);
  }
  const size_t new_vocab_from = static_cast<size_t>(
      options.new_vocab_at * static_cast<double>(options.num_docs));

  std::vector<DriftDocument> docs;
  docs.reserve(options.num_docs);
  const size_t drift_at =
      static_cast<size_t>(options.drift_point * static_cast<double>(options.num_docs));
  for (size_t d = 0; d < options.num_docs; ++d) {
    if (d == drift_at) {
      // Concept drift: part of the vocabulary flips polarity.
      for (size_t t = 0; t < options.vocab_size; ++t) {
        if (rng.Bernoulli(options.drifting_fraction)) polarity[t] = -polarity[t];
      }
    }
    DriftDocument doc;
    doc.doc_id = static_cast<int64_t>(d);
    doc.spam = rng.Bernoulli(0.5);
    const int want = doc.spam ? +1 : -1;
    for (size_t k = 0; k < options.tokens_per_doc; ++k) {
      // Later documents draw half their tokens from the second vocabulary.
      const bool use_new = d >= new_vocab_from && rng.Bernoulli(0.5);
      const std::vector<int>& pol = use_new ? polarity2 : polarity;
      const size_t vocab = use_new ? options.new_vocab_size : options.vocab_size;
      const char* stem = use_new ? "ntok_%zu" : "tok_%zu";
      // Mostly on-polarity tokens, occasional noise.
      for (int attempt = 0; attempt < 40; ++attempt) {
        const size_t t = rng.UniformInt(vocab);
        const bool match = pol[t] == want || pol[t] == 0;
        if (match || rng.Bernoulli(0.05)) {
          doc.tokens.push_back(StrFormat(stem, t));
          break;
        }
      }
    }
    if (rng.Bernoulli(options.label_noise)) doc.spam = !doc.spam;
    docs.push_back(std::move(doc));
  }
  return docs;
}

DriftModel BuildDriftModel(const std::vector<DriftDocument>& docs, double train_frac) {
  DriftModel model;
  model.doc_vars.reserve(docs.size());
  for (const DriftDocument& doc : docs) {
    const VarId v = model.graph.AddVariable();
    model.doc_vars.push_back(v);
    model.labels.push_back(doc.spam);
    for (const std::string& tok : doc.tokens) {
      const factor::WeightId w = model.graph.GetOrCreateTiedWeight("tok/" + tok);
      // Classifier rule Class(x) :- R(x, f) with weight w(f): an empty-body
      // clause contributes w * sign(x) per token occurrence.
      model.graph.AddSimpleFactor(v, {}, w, factor::Semantics::kLinear);
    }
  }
  ExtendTraining(&model, train_frac);
  return model;
}

void ExtendTraining(DriftModel* model, double train_frac) {
  const size_t train =
      static_cast<size_t>(train_frac * static_cast<double>(model->doc_vars.size()));
  for (size_t d = 0; d < train; ++d) {
    model->graph.SetEvidence(model->doc_vars[d], model->labels[d]);
  }
  model->train_count = train;
}

double TestLoss(const DriftModel& model) {
  const factor::CompiledGraph image = factor::CompiledGraph::Compile(model.graph);
  inference::World world(&image);
  inference::GibbsSampler sampler(&image);
  inference::GibbsScratch scratch;
  double loss = 0.0;
  size_t count = 0;
  for (size_t d = model.train_count; d < model.doc_vars.size(); ++d) {
    const double log_odds = sampler.ConditionalLogOdds(world, model.doc_vars[d], &scratch);
    const double z = model.labels[d] ? log_odds : -log_odds;
    loss += z > 0 ? std::log1p(std::exp(-z)) : -z + std::log1p(std::exp(z));
    ++count;
  }
  return count > 0 ? loss / static_cast<double>(count) : 0.0;
}

}  // namespace deepdive::kbc

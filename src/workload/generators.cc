#include "workload/generators.h"

#include <cmath>
#include <random>
#include <string>
#include <vector>

namespace sgq {

namespace {

/// Advances the clock so that on average `edges_per_hour` events share one
/// hour: each event moves time forward by 1 hour with probability
/// 1/edges_per_hour.
Timestamp NextTimestamp(Timestamp current, double edges_per_hour,
                        std::mt19937_64* rng) {
  std::bernoulli_distribution advance(1.0 /
                                      std::max(edges_per_hour, 1e-9));
  return advance(*rng) ? current + kHour : current;
}

}  // namespace

Result<InputStream> GenerateSoStream(const SoOptions& options,
                                     Vocabulary* vocab) {
  SGQ_ASSIGN_OR_RETURN(LabelId a2q, vocab->InternInputLabel("a2q"));
  SGQ_ASSIGN_OR_RETURN(LabelId c2q, vocab->InternInputLabel("c2q"));
  SGQ_ASSIGN_OR_RETURN(LabelId c2a, vocab->InternInputLabel("c2a"));

  std::mt19937_64 rng(options.seed);
  std::vector<VertexId> users;
  users.reserve(options.num_vertices);
  for (std::size_t i = 0; i < options.num_vertices; ++i) {
    SGQ_ASSIGN_OR_RETURN(VertexId v,
                         vocab->InternVertex("u" + std::to_string(i)));
    users.push_back(v);
  }

  // Preferential attachment: endpoints of past edges are re-drawn with
  // probability preferential_fraction, producing heavy-tailed degrees.
  std::vector<VertexId> endpoint_pool;
  endpoint_pool.reserve(options.num_edges * 2);
  std::uniform_int_distribution<std::size_t> uniform_user(
      0, options.num_vertices - 1);
  std::bernoulli_distribution use_pool(options.preferential_fraction);
  std::discrete_distribution<int> label_dist({50, 30, 20});
  const LabelId labels[3] = {a2q, c2q, c2a};

  auto draw_vertex = [&]() -> VertexId {
    if (!endpoint_pool.empty() && use_pool(rng)) {
      std::uniform_int_distribution<std::size_t> pick(
          0, endpoint_pool.size() - 1);
      return endpoint_pool[pick(rng)];
    }
    return users[uniform_user(rng)];
  };

  InputStream stream;
  stream.reserve(options.num_edges);
  std::uniform_real_distribution<double> del_coin(0.0, 1.0);
  std::vector<Sge> recent;  // ring buffer of deletion candidates
  std::size_t recent_head = 0;
  Timestamp t = 0;
  for (std::size_t i = 0; i < options.num_edges; ++i) {
    // Short-circuit keeps the RNG stream untouched when deletions are off,
    // so existing deletion-free streams stay bit-identical.
    if (options.deletion_probability > 0 && !recent.empty() &&
        del_coin(rng) < options.deletion_probability) {
      std::uniform_int_distribution<std::size_t> pick(0, recent.size() - 1);
      Sge victim = recent[pick(rng)];
      victim.t = t;
      victim.is_deletion = true;
      stream.push_back(victim);
      t = NextTimestamp(t, options.edges_per_hour, &rng);
      continue;
    }
    VertexId src = draw_vertex();
    VertexId trg = draw_vertex();
    if (src == trg) trg = users[uniform_user(rng)];
    const LabelId label = labels[label_dist(rng)];
    stream.emplace_back(src, trg, label, t);
    endpoint_pool.push_back(src);
    endpoint_pool.push_back(trg);
    if (options.deletion_probability > 0) {
      const Sge& inserted = stream.back();
      if (recent.size() < options.deletion_horizon) {
        recent.push_back(inserted);
      } else if (!recent.empty()) {
        recent[recent_head] = inserted;
        recent_head = (recent_head + 1) % recent.size();
      }
    }
    t = NextTimestamp(t, options.edges_per_hour, &rng);
  }
  return stream;
}

Result<InputStream> GenerateSnbStream(const SnbOptions& options,
                                      Vocabulary* vocab) {
  SGQ_ASSIGN_OR_RETURN(LabelId knows, vocab->InternInputLabel("knows"));
  SGQ_ASSIGN_OR_RETURN(LabelId likes, vocab->InternInputLabel("likes"));
  SGQ_ASSIGN_OR_RETURN(LabelId has_creator,
                       vocab->InternInputLabel("hasCreator"));
  SGQ_ASSIGN_OR_RETURN(LabelId reply_of, vocab->InternInputLabel("replyOf"));

  std::mt19937_64 rng(options.seed);
  const std::size_t communities = std::max<std::size_t>(
      1, std::min(options.num_communities, options.num_persons));

  std::vector<VertexId> persons;
  persons.reserve(options.num_persons);
  for (std::size_t i = 0; i < options.num_persons; ++i) {
    SGQ_ASSIGN_OR_RETURN(VertexId v,
                         vocab->InternVertex("p" + std::to_string(i)));
    persons.push_back(v);
  }
  std::vector<VertexId> messages;          // all messages so far
  std::vector<std::size_t> message_owner;  // creator index per message

  std::uniform_int_distribution<std::size_t> uniform_person(
      0, options.num_persons - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::bernoulli_distribution replies(options.reply_probability);
  std::bernoulli_distribution intra_community(0.8);

  InputStream stream;
  stream.reserve(options.num_events * 2);
  Timestamp t = 0;
  std::size_t message_counter = 0;

  auto community_of = [&](std::size_t person) { return person % communities; };

  for (std::size_t i = 0; i < options.num_events; ++i) {
    const double kind = coin(rng);
    if (kind < options.knows_probability) {
      // Friendship, biased towards the same community.
      std::size_t p1 = uniform_person(rng);
      std::size_t p2 = uniform_person(rng);
      if (intra_community(rng)) {
        const std::size_t c = community_of(p1);
        // Redraw p2 within p1's community.
        std::size_t tries = 0;
        while (community_of(p2) != c && tries++ < 16) {
          p2 = uniform_person(rng);
        }
      }
      if (p1 != p2) {
        stream.emplace_back(persons[p1], persons[p2], knows, t);
      }
    } else if (kind < options.knows_probability + options.likes_probability &&
               !messages.empty()) {
      // A person likes a recent message, biased towards content created in
      // the same community (likers tend to know the author, which is what
      // the IC7/IS7-style patterns of Q5-Q7 look for).
      std::uniform_int_distribution<std::size_t> recent(
          messages.size() > 64 ? messages.size() - 64 : 0,
          messages.size() - 1);
      std::size_t m = recent(rng);
      std::size_t p = uniform_person(rng);
      if (intra_community(rng)) {
        // Re-draw the liker from the author's community.
        const std::size_t c = community_of(message_owner[m]);
        std::size_t tries = 0;
        while (community_of(p) != c && tries++ < 16) {
          p = uniform_person(rng);
        }
      }
      stream.emplace_back(persons[p], messages[m], likes, t);
    } else {
      // New message: hasCreator always, replyOf to an OLDER message with
      // some probability. Each message has at most one replyOf out-edge,
      // so replyOf stays forest-shaped (single path between vertex pairs).
      const std::size_t p = uniform_person(rng);
      SGQ_ASSIGN_OR_RETURN(
          const VertexId m,
          vocab->InternVertex("m" + std::to_string(message_counter++)));
      stream.emplace_back(m, persons[p], has_creator, t);
      if (!messages.empty() && replies(rng)) {
        std::uniform_int_distribution<std::size_t> recent(
            messages.size() > 64 ? messages.size() - 64 : 0,
            messages.size() - 1);
        // Replies also favor same-community parents (discussions happen
        // within a community), which makes the IS7 pattern observable.
        std::size_t parent = recent(rng);
        if (intra_community(rng)) {
          std::size_t tries = 0;
          while (community_of(message_owner[parent]) != community_of(p) &&
                 tries++ < 16) {
            parent = recent(rng);
          }
        }
        stream.emplace_back(m, messages[parent], reply_of, t);
      }
      messages.push_back(m);
      message_owner.push_back(p);
    }
    t = NextTimestamp(t, options.edges_per_hour, &rng);
  }
  return stream;
}

Result<InputStream> GenerateRandomStream(const RandomStreamOptions& options,
                                         Vocabulary* vocab) {
  std::mt19937_64 rng(options.seed);
  std::vector<LabelId> labels;
  for (std::size_t i = 0; i < options.num_labels; ++i) {
    SGQ_ASSIGN_OR_RETURN(
        LabelId l,
        vocab->InternInputLabel(std::string(1, static_cast<char>('a' + i))));
    labels.push_back(l);
  }
  std::vector<VertexId> vertices;
  for (std::size_t i = 0; i < options.num_vertices; ++i) {
    SGQ_ASSIGN_OR_RETURN(VertexId v,
                         vocab->InternVertex("v" + std::to_string(i)));
    vertices.push_back(v);
  }
  std::uniform_int_distribution<std::size_t> pick_v(
      0, options.num_vertices - 1);
  std::uniform_int_distribution<std::size_t> pick_l(
      0, options.num_labels - 1);
  std::uniform_int_distribution<Timestamp> gap(0, options.max_gap);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  InputStream stream;
  Timestamp t = 0;
  std::vector<Sge> inserted;
  for (std::size_t i = 0; i < options.num_edges; ++i) {
    t += gap(rng);
    if (!inserted.empty() && coin(rng) < options.deletion_probability) {
      std::uniform_int_distribution<std::size_t> pick(0,
                                                      inserted.size() - 1);
      Sge victim = inserted[pick(rng)];
      victim.t = t;
      victim.is_deletion = true;
      stream.push_back(victim);
      continue;
    }
    Sge sge(vertices[pick_v(rng)], vertices[pick_v(rng)],
            labels[pick_l(rng)], t);
    stream.push_back(sge);
    inserted.push_back(sge);
  }
  return stream;
}

Result<InputStream> GenerateZipfLabelStream(const ZipfStreamOptions& options,
                                            Vocabulary* vocab) {
  std::vector<LabelId> labels;
  labels.reserve(options.num_labels);
  for (std::size_t i = 0; i < options.num_labels; ++i) {
    SGQ_ASSIGN_OR_RETURN(LabelId l,
                         vocab->InternInputLabel("l" + std::to_string(i)));
    labels.push_back(l);
  }
  std::vector<VertexId> vertices;
  vertices.reserve(options.num_vertices);
  for (std::size_t i = 0; i < options.num_vertices; ++i) {
    SGQ_ASSIGN_OR_RETURN(VertexId v,
                         vocab->InternVertex("z" + std::to_string(i)));
    vertices.push_back(v);
  }

  // Zipf over label ranks: weight(r) = 1 / r^skew, r starting at 1.
  std::vector<double> weights;
  weights.reserve(options.num_labels);
  for (std::size_t r = 1; r <= options.num_labels; ++r) {
    weights.push_back(1.0 / std::pow(static_cast<double>(r), options.skew));
  }
  std::mt19937_64 rng(options.seed);
  std::discrete_distribution<std::size_t> pick_l(weights.begin(),
                                                 weights.end());
  std::uniform_int_distribution<std::size_t> pick_v(
      0, options.num_vertices - 1);

  InputStream stream;
  stream.reserve(options.num_edges);
  Timestamp t = 0;
  for (std::size_t i = 0; i < options.num_edges; ++i) {
    stream.emplace_back(vertices[pick_v(rng)], vertices[pick_v(rng)],
                        labels[pick_l(rng)], t);
    t = NextTimestamp(t, options.edges_per_hour, &rng);
  }
  return stream;
}

}  // namespace sgq

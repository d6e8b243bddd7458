#include "service/service_snapshot.h"

#include <fstream>
#include <sstream>

#include "io/binary_format.h"
#include "io/snapshot.h"

namespace kspin {

void WriteServiceSnapshot(const PoiService& service, std::ostream& out,
                          const ServiceSnapshotArtifacts& extra) {
  const KSpin& engine = service.Engine();
  io::SnapshotWriter writer;
  writer.AddSection(io::SnapshotSection::kGraph, [&](std::ostream& s) {
    SaveGraph(engine.NetworkGraph(), s);
  });
  writer.AddSection(io::SnapshotSection::kDocumentStore,
                    [&](std::ostream& s) { SaveDocumentStore(engine.Store(), s); });
  writer.AddSection(io::SnapshotSection::kPoiCatalog, [&](std::ostream& s) {
    SavePoiCatalog({service.Keywords(), service.Names()}, s);
  });
  writer.AddSection(io::SnapshotSection::kAltIndex,
                    [&](std::ostream& s) { SaveAltIndex(engine.Alt(), s); });
  writer.AddSection(io::SnapshotSection::kKeywordIndex, [&](std::ostream& s) {
    SaveKeywordIndex(engine.Keywords(), s);
  });
  if (extra.ch != nullptr) {
    writer.AddSection(io::SnapshotSection::kContractionHierarchy,
                      [&](std::ostream& s) {
                        SaveContractionHierarchy(*extra.ch, s);
                      });
  }
  if (extra.hl != nullptr) {
    writer.AddSection(io::SnapshotSection::kHubLabeling, [&](std::ostream& s) {
      SaveHubLabeling(*extra.hl, s);
    });
  }
  writer.AddSection(io::SnapshotSection::kOplogPosition, [&](std::ostream& s) {
    io::WritePod(s, extra.applied_mutation_sequence);
  });
  writer.Finish(out);
}

RestoredServiceState ReadServiceSnapshot(std::istream& in,
                                         const Graph* serving_graph) {
  io::SnapshotReader reader(in);
  RestoredServiceState state;

  const std::string_view graph_bytes =
      reader.Section(io::SnapshotSection::kGraph);
  const Graph* bind_graph = nullptr;
  if (serving_graph != nullptr) {
    // RELOAD: the indexes in this snapshot only make sense over the graph
    // the server is serving. Byte-compare the serialized forms.
    std::ostringstream serving(std::ios::binary);
    SaveGraph(*serving_graph, serving);
    if (std::move(serving).str() != graph_bytes) {
      throw io::SerializationError(
          "snapshot graph differs from the serving graph");
    }
    bind_graph = serving_graph;
  } else {
    io::ViewIStream graph_in(graph_bytes);
    state.graph = std::make_unique<Graph>(LoadGraph(graph_in));
    bind_graph = state.graph.get();
  }

  {
    io::ViewIStream s(reader.Section(io::SnapshotSection::kDocumentStore));
    state.store = LoadDocumentStore(s);
  }
  {
    io::ViewIStream s(reader.Section(io::SnapshotSection::kPoiCatalog));
    state.catalog = LoadPoiCatalog(s);
  }
  {
    io::ViewIStream s(reader.Section(io::SnapshotSection::kAltIndex));
    state.alt = std::make_unique<AltIndex>(LoadAltIndex(s));
  }
  {
    io::ViewIStream s(reader.Section(io::SnapshotSection::kKeywordIndex));
    state.keyword_index =
        std::make_unique<KeywordIndex>(LoadKeywordIndex(*bind_graph, s));
  }
  if (reader.Has(io::SnapshotSection::kContractionHierarchy)) {
    io::ViewIStream s(
        reader.Section(io::SnapshotSection::kContractionHierarchy));
    state.ch =
        std::make_unique<ContractionHierarchy>(LoadContractionHierarchy(s));
  }
  if (reader.Has(io::SnapshotSection::kHubLabeling)) {
    io::ViewIStream s(reader.Section(io::SnapshotSection::kHubLabeling));
    state.hl = std::make_unique<HubLabeling>(LoadHubLabeling(s));
  }
  if (reader.Has(io::SnapshotSection::kOplogPosition)) {
    // Snapshots from before the op log simply lack this section; they
    // restore with sequence 0 (replay everything the log still holds).
    io::ViewIStream s(reader.Section(io::SnapshotSection::kOplogPosition));
    state.applied_mutation_sequence = io::ReadPod<std::uint64_t>(s);
  }

  // Cross-section sanity: the oracle indexes are over this graph, and
  // every object vertex must exist in it.
  const std::size_t num_vertices = bind_graph->NumVertices();
  if ((state.ch != nullptr && state.ch->NumVertices() != num_vertices) ||
      (state.hl != nullptr && state.hl->NumVertices() != num_vertices)) {
    throw io::SerializationError(
        "snapshot oracle index built for another graph");
  }
  for (ObjectId o = 0; o < state.store.NumSlots(); ++o) {
    if (state.store.IsLive(o) && state.store.ObjectVertex(o) >= num_vertices) {
      throw io::SerializationError("snapshot object vertex out of range");
    }
  }
  if (state.catalog.names.size() < state.store.NumSlots()) {
    // Every object id must resolve to a name; the store can't have slots
    // the catalogue never saw.
    throw io::SerializationError("snapshot catalog misses object names");
  }
  return state;
}

RestoredServiceState ReadServiceSnapshotBytes(std::string_view bytes,
                                              const Graph* serving_graph) {
  io::ViewIStream in(bytes);
  return ReadServiceSnapshot(in, serving_graph);
}

bool WriteServiceSnapshotFile(const std::string& path,
                              const PoiService& service,
                              const ServiceSnapshotArtifacts& extra,
                              const io::AtomicWriteHooks* hooks) {
  return io::WriteFileAtomically(
      path,
      [&](std::ostream& out) { WriteServiceSnapshot(service, out, extra); },
      hooks);
}

std::optional<LoadedServiceSnapshot> LoadNewestValidServiceSnapshot(
    const std::string& dir, const Graph* serving_graph,
    std::vector<std::string>* errors) {
  for (const auto& [sequence, path] : io::FindSnapshots(dir)) {
    try {
      std::ifstream file(path, std::ios::binary);
      if (!file) {
        throw io::SerializationError("cannot open " + path);
      }
      LoadedServiceSnapshot loaded;
      loaded.state = ReadServiceSnapshot(file, serving_graph);
      loaded.sequence = sequence;
      loaded.path = path;
      return loaded;
    } catch (const io::SerializationError& e) {
      if (errors != nullptr) {
        errors->push_back(path + ": " + e.what());
      }
      // Fall through to the next-newest snapshot.
    }
  }
  return std::nullopt;
}

}  // namespace kspin

#include "hw/tile.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "hw/asic_model.hpp"
#include "stream/decision_service.hpp"

namespace sf::hw {

Tile::Tile(const pore::ReferenceSquiggle &reference, TileConfig config)
    : reference_(reference), config_(config)
{
    stream::checkAsicImplementable({config_.numPes, config_.clockGhz},
                                   config_.dp);
    if (referenceBytes(reference_.size()) > config_.referenceBufferBytes) {
        fatal("reference '%s' (%zu samples) exceeds the %zu-byte "
              "reference buffer; the filter targets genomes under "
              "100k bases (paper §4.4)",
              reference_.referenceName().c_str(), reference_.size(),
              config_.referenceBufferBytes);
    }
}

TileResult
Tile::processRead(std::span<const RawSample> raw,
                  const std::vector<sdtw::FilterStage> &stages) const
{
    sdtw::SquiggleFilterClassifier classifier(reference_, config_.dp);
    classifier.setStages(stages);
    sdtw::ClassifierStream stream = classifier.beginStream();

    // Feed the read stage by stage: snapshot the fold progress, fold,
    // then charge the stage's new rows, as hw::AsicBackend does per
    // decision.  A read shorter than a stage prefix ends there.
    TileResult result;
    for (std::size_t s = 0; s < stages.size() && !stream.decided; ++s) {
        const std::size_t want =
            std::min(stages[s].prefixSamples, raw.size());
        const bool truncated = want < stages[s].prefixSamples;
        const std::size_t pre = stream.consumed;
        const std::size_t seen = stream.samplesSeen();
        classifier.feedChunk(stream, raw.subspan(seen, want - seen));
        if (truncated)
            classifier.finishStream(stream);
        const AsicDecisionModel model = modelDecision(
            config_.numPes, stream.consumed - pre, reference_.size(),
            pre > 0, truncated || s + 1 == stages.size());
        result.cycles += model.cycles;
        result.dramBytesRead += model.dramBytesRead;
        result.dramBytesWritten += model.dramBytesWritten;
    }
    result.classification = stream.result;
    result.latencySeconds =
        double(result.cycles) / (config_.clockGhz * 1e9);
    return result;
}

} // namespace sf::hw

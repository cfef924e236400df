/**
 * @file
 * Flat parameter storage with named segments.
 *
 * A3C keeps a global parameter set plus one local snapshot per agent;
 * the FA3C DRAM layout model and the RMSProp module both operate on
 * flat word arrays, so parameters live in one contiguous buffer with
 * named views per layer ("conv1.w", "fc3.b", ...).
 */

#ifndef FA3C_NN_PARAMS_HH
#define FA3C_NN_PARAMS_HH

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hh"

namespace fa3c::nn {

/**
 * A contiguous float buffer partitioned into named segments.
 *
 * Identical layouts (same segment names/sizes in the same order) can
 * be copied and combined elementwise; this is what parameter sync and
 * gradient application do.
 */
class ParamSet
{
  public:
    /** One named slice of the flat buffer. */
    struct Segment
    {
        std::string name;
        std::size_t offset;
        std::size_t count;
    };

    /** (name, element count) per segment, in order. */
    using Layout = std::vector<std::pair<std::string, std::size_t>>;

    ParamSet() = default;

    /**
     * Build from (name, element-count) pairs, zero-initialized.
     */
    explicit ParamSet(const Layout &layout);

    /** Total number of float elements. */
    std::size_t size() const { return data_.size(); }

    /** Total size in bytes (4 bytes per parameter). */
    std::size_t sizeBytes() const { return data_.size() * sizeof(float); }

    /** Mutable view of the named segment. Panics on unknown names. */
    std::span<float> view(const std::string &name);

    /** Const view of the named segment. */
    std::span<const float> view(const std::string &name) const;

    /** Mutable view of the whole buffer. */
    std::span<float> flat() { return data_; }

    /** Const view of the whole buffer. */
    std::span<const float> flat() const { return data_; }

    /** The segment table, in layout order. */
    const std::vector<Segment> &segments() const { return segments_; }

    /** True when @p other has the identical segment layout. */
    bool sameLayout(const ParamSet &other) const;

    /** True when the segments are exactly @p layout. */
    bool sameLayout(const Layout &layout) const;

    /** Set every element to zero. */
    void zero();

    /** Copy all values from a layout-identical set (parameter sync). */
    void copyFrom(const ParamSet &other);

    /** this += scale * other (elementwise, layout-identical). */
    void axpy(float scale, const ParamSet &other);

    /** Max |a-b| across two layout-identical sets. */
    static float maxAbsDiff(const ParamSet &a, const ParamSet &b);

  private:
    std::vector<float> data_;
    std::vector<Segment> segments_;

    const Segment &findSegment(const std::string &name) const;
};

} // namespace fa3c::nn

#endif // FA3C_NN_PARAMS_HH

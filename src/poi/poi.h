// Core POI data model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/geometry.h"

namespace poiprivacy::poi {

using TypeId = std::uint32_t;
using PoiId = std::uint32_t;

/// A point of interest: a position plus a categorical type (OSM-style
/// amenity/shop/... category).
struct Poi {
  PoiId id = 0;
  TypeId type = 0;
  geo::Point pos;
};

/// One type of a sparse count aggregate over several locations (the DP
/// defense's step (2)): the sum of the locations' counts of `type` and
/// their maximum. An aggregate lists its support in ascending type order;
/// every type it leaves out has sum = max = 0.
struct TypeSumMax {
  TypeId type = 0;
  std::int32_t sum = 0;
  std::int32_t max = 0;

  friend bool operator==(const TypeSumMax&, const TypeSumMax&) = default;
};

/// Registry of POI type names. Type ids are dense indices [0, size).
class PoiTypeRegistry {
 public:
  PoiTypeRegistry() = default;
  explicit PoiTypeRegistry(std::vector<std::string> names)
      : names_(std::move(names)) {}

  /// Returns the id for `name`, interning it if new.
  TypeId intern(const std::string& name);

  const std::string& name(TypeId id) const { return names_.at(id); }
  std::size_t size() const noexcept { return names_.size(); }

 private:
  std::vector<std::string> names_;
};

}  // namespace poiprivacy::poi

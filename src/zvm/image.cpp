#include "zvm/image.h"

#include "common/serial.h"
#include "crypto/sha256.h"

namespace zkt::zvm {

ImageID compute_image_id(std::string_view name, u32 version) {
  Writer w;
  w.str("zkt.image.v2");
  w.str(name);
  w.u32v(version);
  return crypto::sha256(w.bytes());
}

ImageRegistry& ImageRegistry::instance() {
  static ImageRegistry registry;
  return registry;
}

ImageID ImageRegistry::add(std::string name, u32 version, GuestFn fn) {
  const ImageID id = compute_image_id(name, version);
  std::lock_guard<std::mutex> lock(mutex_);
  images_[id.bytes] = Image{std::move(name), version, id, std::move(fn)};
  return id;
}

const Image* ImageRegistry::find(const ImageID& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = images_.find(id.bytes);
  return it == images_.end() ? nullptr : &it->second;
}

}  // namespace zkt::zvm

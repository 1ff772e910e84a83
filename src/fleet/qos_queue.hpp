#ifndef SF_FLEET_QOS_QUEUE_HPP
#define SF_FLEET_QOS_QUEUE_HPP

/**
 * @file
 * Fleet names for the QoS request queue, which lives in
 * stream/chunk_queue.hpp next to the decision pool that drains it.
 */

#include "stream/chunk_queue.hpp"

namespace sf::fleet {

using stream::kQosClasses;
using stream::QosBoundedQueue;
using stream::QosClass;
using stream::qosClassName;

} // namespace sf::fleet

#endif // SF_FLEET_QOS_QUEUE_HPP
